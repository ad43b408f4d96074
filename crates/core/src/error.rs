//! The unified workspace error type.
//!
//! Every stage of the flow can fail in its own layer — optimisation
//! ([`FlowError`]), behavioural-model construction
//! ([`ayb_behavioral::ModelError`]), circuit simulation
//! ([`ayb_sim::SimError`]), table lookups
//! ([`ayb_table::TableError`]) or circuit construction
//! ([`ayb_circuit::CircuitError`]). [`AybError`] wraps them all
//! with `From` conversions so that `?` works across layer boundaries, and
//! [`std::error::Error::source`] preserves the underlying cause.

use crate::flow::FlowError;
use ayb_behavioral::ModelError;
use ayb_circuit::CircuitError;
use ayb_moo::CheckpointError;
use ayb_sim::SimError;
use ayb_store::StoreError;
use ayb_table::TableError;
use std::fmt;

/// Unified error for the end-to-end flow: wraps every layer's error type.
#[derive(Debug, Clone, PartialEq)]
pub enum AybError {
    /// Flow-level failure (no candidates, insufficient Pareto data, ...).
    Flow(FlowError),
    /// Behavioural-model construction or model-use failure.
    Model(ModelError),
    /// Circuit-simulation failure.
    Sim(SimError),
    /// Table-model construction or lookup failure.
    Table(TableError),
    /// Circuit-construction failure.
    Circuit(CircuitError),
    /// Run-store persistence failure.
    Store(StoreError),
    /// Checkpoint resume/halt outcome. Note that
    /// [`ayb_moo::CheckpointError::Halted`] is a
    /// deliberate pause, not a failure: the run's state is on disk and
    /// [`FlowBuilder::resume`](crate::FlowBuilder::resume) continues it.
    Checkpoint(CheckpointError),
}

impl fmt::Display for AybError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AybError::Flow(e) => write!(f, "flow error: {e}"),
            AybError::Model(e) => write!(f, "model error: {e}"),
            AybError::Sim(e) => write!(f, "simulation error: {e}"),
            AybError::Table(e) => write!(f, "table error: {e}"),
            AybError::Circuit(e) => write!(f, "circuit error: {e}"),
            AybError::Store(e) => write!(f, "store error: {e}"),
            AybError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for AybError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AybError::Flow(e) => Some(e),
            AybError::Model(e) => Some(e),
            AybError::Sim(e) => Some(e),
            AybError::Table(e) => Some(e),
            AybError::Circuit(e) => Some(e),
            AybError::Store(e) => Some(e),
            AybError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<FlowError> for AybError {
    fn from(e: FlowError) -> Self {
        AybError::Flow(e)
    }
}

impl From<ModelError> for AybError {
    fn from(e: ModelError) -> Self {
        AybError::Model(e)
    }
}

impl From<SimError> for AybError {
    fn from(e: SimError) -> Self {
        AybError::Sim(e)
    }
}

impl From<TableError> for AybError {
    fn from(e: TableError) -> Self {
        AybError::Table(e)
    }
}

impl From<CircuitError> for AybError {
    fn from(e: CircuitError) -> Self {
        AybError::Circuit(e)
    }
}

impl From<StoreError> for AybError {
    fn from(e: StoreError) -> Self {
        AybError::Store(e)
    }
}

impl From<CheckpointError> for AybError {
    fn from(e: CheckpointError) -> Self {
        AybError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn question_mark_converts_every_layer() {
        fn flows() -> Result<(), AybError> {
            Err(FlowError::NoFeasibleCandidates)?
        }
        fn models() -> Result<(), AybError> {
            Err(ModelError::NotEnoughData(1))?
        }
        fn sims() -> Result<(), AybError> {
            Err(SimError::SingularMatrix {
                pivot: 3,
                unknown: None,
            })?
        }
        fn tables() -> Result<(), AybError> {
            Err(TableError::NotEnoughPoints { got: 1, needed: 4 })?
        }
        fn circuits() -> Result<(), AybError> {
            Err(CircuitError::UnknownModel("nmos9".into()))?
        }
        assert!(matches!(flows(), Err(AybError::Flow(_))));
        assert!(matches!(models(), Err(AybError::Model(_))));
        assert!(matches!(sims(), Err(AybError::Sim(_))));
        assert!(matches!(tables(), Err(AybError::Table(_))));
        assert!(matches!(circuits(), Err(AybError::Circuit(_))));
    }

    #[test]
    fn display_and_source_preserve_the_cause() {
        let e = AybError::from(SimError::SingularMatrix {
            pivot: 3,
            unknown: None,
        });
        assert!(e.to_string().contains("singular"));
        assert!(e.source().is_some());
        let e = AybError::from(FlowError::InsufficientParetoData(2));
        assert!(e.to_string().contains('2'));
    }

    #[test]
    fn store_and_checkpoint_errors_wrap() {
        let store = AybError::from(StoreError::RunNotFound("run-0001".into()));
        assert!(store.to_string().contains("run-0001"));
        assert!(store.source().is_some());

        let halted = AybError::from(CheckpointError::Halted { generation: 5 });
        assert!(halted.to_string().contains('5'));
        assert!(halted.source().is_some());
    }
}
