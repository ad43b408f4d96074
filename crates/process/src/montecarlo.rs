//! Monte Carlo engine.
//!
//! The engine mirrors what a foundry Monte Carlo deck does in Spectre (paper
//! §3.4): for every sample it
//!
//! 1. perturbs the **model cards** with a global (die-to-die) draw shared by
//!    all devices of a polarity, and
//! 2. perturbs every **MOSFET instance** with an independent local-mismatch
//!    draw whose σ follows the Pelgrom law for that device's gate area,
//!
//! then hands the perturbed circuit to a user-supplied evaluation function
//! (typically "simulate and measure gain / phase margin"). Samples whose
//! evaluation fails (e.g. a non-converging bias point) are recorded as
//! failures rather than aborting the whole analysis.

use crate::sampling::truncated_normal;
use crate::statistics::Summary;
use crate::variation::ProcessVariation;
use ayb_circuit::{Circuit, Device, MosfetPolarity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::{mpsc, Mutex};

/// Configuration of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloConfig {
    /// Number of samples to draw (the paper uses 200 per Pareto point and 500
    /// for final verification).
    pub samples: usize,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Include the global (die-to-die) component.
    pub include_global: bool,
    /// Include the local (mismatch) component.
    pub include_mismatch: bool,
    /// Truncation of the normal draws in standard deviations.
    pub sigma_clip: f64,
}

impl MonteCarloConfig {
    /// Creates a configuration with both variation components enabled.
    pub fn new(samples: usize, seed: u64) -> Self {
        MonteCarloConfig {
            samples,
            seed,
            include_global: true,
            include_mismatch: true,
            sigma_clip: 3.0,
        }
    }

    /// Disables the global component (mismatch-only analysis).
    pub fn mismatch_only(mut self) -> Self {
        self.include_global = false;
        self
    }

    /// Disables the mismatch component (global-only analysis).
    pub fn global_only(mut self) -> Self {
        self.include_mismatch = false;
        self
    }
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig::new(200, 0x5eed)
    }
}

/// Outcome of one Monte Carlo run over a scalar-producing evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonteCarloRun<T> {
    /// Values returned by the evaluation function, one per successful sample.
    pub values: Vec<T>,
    /// Number of samples whose evaluation failed.
    pub failed_samples: usize,
}

impl<T> MonteCarloRun<T> {
    /// Number of successful samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no sample succeeded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl MonteCarloRun<f64> {
    /// Summary statistics of the collected scalar values.
    pub fn summary(&self) -> Option<Summary> {
        Summary::of(&self.values)
    }
}

/// Draws one statistically perturbed copy of `circuit`.
///
/// The same RNG is advanced deterministically, so calling this in a loop with
/// a seeded RNG reproduces the identical sample sequence every run.
pub fn perturb_circuit<R: Rng + ?Sized>(
    circuit: &Circuit,
    variation: &ProcessVariation,
    config: &MonteCarloConfig,
    rng: &mut R,
) -> Circuit {
    let mut sample = circuit.clone();

    // Global component: one draw per polarity, applied to the model cards.
    if config.include_global {
        for card in sample.models_mut().values_mut() {
            let spread = variation.global(card.polarity);
            // Threshold shifts in the direction of increasing magnitude for a
            // positive draw, handled through the polarity sign.
            let dvto_mag = truncated_normal(rng, 0.0, spread.sigma_vto, config.sigma_clip);
            let kp_mult = 1.0 + truncated_normal(rng, 0.0, spread.sigma_kp_rel, config.sigma_clip);
            let signed_shift = dvto_mag * card.polarity.sign();
            *card = card.perturbed(signed_shift, kp_mult.max(0.05));
        }
    }

    // Local mismatch: independent draw per MOSFET instance.
    if config.include_mismatch {
        // Collect polarity per model first to avoid borrowing issues.
        let polarity_of =
            |sample: &Circuit, model: &str| -> MosfetPolarity { sample.models()[model].polarity };
        let names: Vec<String> = sample
            .instances()
            .iter()
            .filter(|i| matches!(i.device, Device::Mosfet(_)))
            .map(|i| i.name.clone())
            .collect();
        for name in names {
            let (area, polarity) = {
                let inst = sample.instance(&name).expect("instance exists");
                match &inst.device {
                    Device::Mosfet(m) => (m.gate_area(), polarity_of(&sample, &m.model)),
                    _ => unreachable!("filtered to MOSFETs"),
                }
            };
            let coeff = variation.mismatch(polarity);
            let delta_vto = truncated_normal(rng, 0.0, coeff.sigma_vt(area), config.sigma_clip);
            let beta_mult =
                1.0 + truncated_normal(rng, 0.0, coeff.sigma_beta(area), config.sigma_clip);
            if let Some(inst) = sample.instance_mut(&name) {
                if let Device::Mosfet(m) = &mut inst.device {
                    m.delta_vto = delta_vto;
                    m.beta_mult = beta_mult.max(0.05);
                }
            }
        }
    }
    sample
}

/// Runs a Monte Carlo analysis, calling `evaluate` on every perturbed circuit.
///
/// `evaluate` returns `Some(value)` for a successful sample and `None` for a
/// failed one (for example a non-converging operating point); failures are
/// counted but do not abort the run.
pub fn run<T>(
    circuit: &Circuit,
    variation: &ProcessVariation,
    config: &MonteCarloConfig,
    mut evaluate: impl FnMut(&Circuit) -> Option<T>,
) -> MonteCarloRun<T> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut values = Vec::with_capacity(config.samples);
    let mut failed = 0usize;
    for _ in 0..config.samples {
        let sample = perturb_circuit(circuit, variation, config, &mut rng);
        match evaluate(&sample) {
            Some(v) => values.push(v),
            None => failed += 1,
        }
    }
    MonteCarloRun {
        values,
        failed_samples: failed,
    }
}

/// Parallel Monte Carlo analysis using scoped worker threads.
///
/// The calling thread draws the sample circuits in the order [`run`] draws
/// them, from the same seeded RNG, and hands each one to the next free
/// worker as soon as it is drawn; `threads` workers evaluate them. Each
/// result is stored at its sample index, so the outcome equals [`run`]'s bit
/// for bit however the samples' evaluation times interleave. With
/// `threads <= 1` the samples are evaluated inline, on the calling thread.
pub fn run_parallel<T: Send>(
    circuit: &Circuit,
    variation: &ProcessVariation,
    config: &MonteCarloConfig,
    threads: usize,
    evaluate: impl Fn(&Circuit) -> Option<T> + Sync,
) -> MonteCarloRun<T> {
    if threads <= 1 {
        return run(circuit, variation, config, evaluate);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (sender, receiver) = mpsc::channel::<(usize, Circuit)>();
    let receiver = Mutex::new(receiver);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(config.samples);
    slots.resize_with(config.samples, || None);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (receiver, evaluate) = (&receiver, &evaluate);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard is dropped at the end of this statement,
                        // before the sample is evaluated.
                        let next = receiver
                            .lock()
                            .expect("no worker panics while receiving")
                            .recv();
                        let Ok((index, sample)) = next else {
                            return done;
                        };
                        done.push((index, evaluate(&sample)));
                    }
                })
            })
            .collect();
        for index in 0..config.samples {
            let sample = perturb_circuit(circuit, variation, config, &mut rng);
            sender
                .send((index, sample))
                .expect("the receiver outlives the workers");
        }
        drop(sender);
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (index, value) in done {
                slots[index] = value;
            }
        }
    });

    let mut values = Vec::with_capacity(slots.len());
    let mut failed = 0usize;
    for slot in slots {
        match slot {
            Some(v) => values.push(v),
            None => failed += 1,
        }
    }
    MonteCarloRun {
        values,
        failed_samples: failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_circuit::{Circuit, Mosfet};

    fn mosfet_circuit() -> Circuit {
        let mut ckt = Circuit::new("mc");
        ckt.add_default_models();
        let d = ckt.node("d");
        let g = ckt.node("g");
        let gnd = ckt.gnd();
        ckt.add_vsource("vd", d, gnd, 1.5).unwrap();
        ckt.add_vsource("vg", g, gnd, 1.0).unwrap();
        ckt.add_mosfet("m1", Mosfet::new(d, g, gnd, gnd, "nmos", 10e-6, 1e-6))
            .unwrap();
        ckt.add_mosfet("m2", Mosfet::new(d, g, gnd, gnd, "nmos", 40e-6, 4e-6))
            .unwrap();
        ckt
    }

    #[test]
    fn perturbation_changes_models_and_instances() {
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(1, 123);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let sample = perturb_circuit(&ckt, &var, &cfg, &mut rng);
        assert_ne!(sample.models()["nmos"].vto, ckt.models()["nmos"].vto);
        let m1 = match &sample.instance("m1").unwrap().device {
            Device::Mosfet(m) => m.clone(),
            _ => unreachable!(),
        };
        assert_ne!(m1.delta_vto, 0.0);
        assert_ne!(m1.beta_mult, 1.0);
    }

    #[test]
    fn larger_devices_receive_smaller_mismatch() {
        // Statistical check: the 40µ×4µ device has 4× the linear dimension of
        // the 10µ×1µ device, so its mismatch σ must be ~4× smaller.
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(400, 7).mismatch_only();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut small = Vec::new();
        let mut large = Vec::new();
        for _ in 0..cfg.samples {
            let sample = perturb_circuit(&ckt, &var, &cfg, &mut rng);
            for (name, acc) in [("m1", &mut small), ("m2", &mut large)] {
                if let Device::Mosfet(m) = &sample.instance(name).unwrap().device {
                    acc.push(m.delta_vto);
                }
            }
        }
        let s_small = Summary::of(&small).unwrap().std_dev;
        let s_large = Summary::of(&large).unwrap().std_dev;
        let ratio = s_small / s_large;
        assert!((3.0..5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn run_is_reproducible_for_same_seed() {
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(25, 42);
        let extract = |c: &Circuit| Some(c.models()["nmos"].vto);
        let a = run(&ckt, &var, &cfg, extract);
        let b = run(&ckt, &var, &cfg, extract);
        assert_eq!(a.values, b.values);
        assert_eq!(a.failed_samples, 0);
        assert_eq!(a.len(), 25);
        let different = run(&ckt, &var, &MonteCarloConfig::new(25, 43), extract);
        assert_ne!(a.values, different.values);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(10, 1);
        let mut counter = 0usize;
        let result = run(&ckt, &var, &cfg, |_| {
            counter += 1;
            if counter.is_multiple_of(2) {
                None
            } else {
                Some(counter as f64)
            }
        });
        assert_eq!(result.failed_samples, 5);
        assert_eq!(result.len(), 5);
        assert!(!result.is_empty());
        assert!(result.summary().is_some());
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(40, 11);
        let extract = |c: &Circuit| Some(c.models()["pmos"].kp);
        let sequential = run(&ckt, &var, &cfg, extract);
        let parallel = run_parallel(&ckt, &var, &cfg, 4, extract);
        assert_eq!(sequential.values, parallel.values);
    }

    /// Every thread count gives [`run`]'s values and failure count, bit for
    /// bit, while samples finish out of order: the cost of a sample depends
    /// on its index, and with two or more workers sample 0 cannot finish
    /// before sample 1 has.
    #[test]
    fn parallel_run_matches_sequential_when_samples_finish_out_of_order() {
        use std::collections::HashMap;
        use std::sync::Condvar;

        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let cfg = MonteCarloConfig::new(48, 2008);
        let fingerprint = |c: &Circuit| {
            (
                c.models()["nmos"].vto.to_bits(),
                c.models()["pmos"].kp.to_bits(),
            )
        };
        // The sequential run visits samples in index order.
        let mut index_of = HashMap::new();
        run(&ckt, &var, &cfg, |c| {
            let next = index_of.len();
            index_of.insert(fingerprint(c), next);
            Some(())
        });
        assert_eq!(
            index_of.len(),
            cfg.samples,
            "sample fingerprints are distinct"
        );
        let value = |c: &Circuit, index: usize| {
            (index % 5 != 3).then(|| c.models()["nmos"].vto * c.models()["pmos"].kp)
        };
        let sequential = run(&ckt, &var, &cfg, |c| value(c, index_of[&fingerprint(c)]));
        assert_eq!(sequential.failed_samples, 9);

        for threads in [1, 2, 3, 8] {
            let sample_1_done = (Mutex::new(false), Condvar::new());
            let finished = Mutex::new(Vec::new());
            let parallel = run_parallel(&ckt, &var, &cfg, threads, |c| {
                let index = index_of[&fingerprint(c)];
                let (done, signal) = &sample_1_done;
                if threads > 1 && index == 0 {
                    let mut done = done.lock().unwrap();
                    while !*done {
                        done = signal.wait(done).unwrap();
                    }
                }
                // Early samples cost more than late ones.
                let mut spin = 0u64;
                for step in 0..(cfg.samples - index) * 2_000 {
                    spin = std::hint::black_box(spin.wrapping_add(step as u64));
                }
                finished.lock().unwrap().push(index);
                if index == 1 {
                    *done.lock().unwrap() = true;
                    signal.notify_all();
                }
                value(c, index)
            });
            let bits =
                |r: &MonteCarloRun<f64>| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&parallel), bits(&sequential), "{threads} threads");
            assert_eq!(parallel.failed_samples, sequential.failed_samples);
            let finished = finished.into_inner().unwrap();
            assert_eq!(finished.len(), cfg.samples);
            if threads > 1 {
                let position = |i| finished.iter().position(|&f| f == i).unwrap();
                assert!(position(1) < position(0), "{threads} threads: {finished:?}");
            } else {
                assert!(
                    finished.windows(2).all(|w| w[0] < w[1]),
                    "inline run is in order"
                );
            }
        }
    }

    #[test]
    fn component_toggles_isolate_variation_sources() {
        let ckt = mosfet_circuit();
        let var = ProcessVariation::generic_035um();
        let global_only = MonteCarloConfig::new(5, 3).global_only();
        let mut rng = StdRng::seed_from_u64(3);
        let sample = perturb_circuit(&ckt, &var, &global_only, &mut rng);
        if let Device::Mosfet(m) = &sample.instance("m1").unwrap().device {
            assert_eq!(m.delta_vto, 0.0, "mismatch disabled");
        }
        let mismatch_only = MonteCarloConfig::new(5, 3).mismatch_only();
        let mut rng = StdRng::seed_from_u64(3);
        let sample = perturb_circuit(&ckt, &var, &mismatch_only, &mut rng);
        assert_eq!(sample.models()["nmos"].vto, ckt.models()["nmos"].vto);
    }
}
