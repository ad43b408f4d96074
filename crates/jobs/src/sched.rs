//! Tenant-aware run scheduling: priority lanes and weighted round-robin.
//!
//! [`WrrQueue`] is the job server's one dispatch queue, for plain
//! `ayb serve` and the `ayb-svc` service alike. It implements **weighted
//! round-robin across tenants with priority lanes within each tenant**:
//!
//! * every tenant owns three lanes (`high` → `normal` → `low`); within a
//!   tenant, a higher lane always dispatches before a lower one, FIFO within
//!   a lane;
//! * across tenants, dispatch cycles tenant names in deterministic
//!   lexicographic order, each tenant spending one *credit* per dispatched
//!   run; credits refill to the tenant's weight once no tenant with queued
//!   work has any left, so a tenant with weight 3 gets three dispatches per
//!   cycle to a weight-1 tenant's one;
//! * the rotation is **work-conserving**: tenants with nothing queued (or at
//!   their running cap) are skipped, never block the cycle, and never bank
//!   unused credits beyond one refill;
//! * a per-tenant `max_running` cap (0 = unlimited) holds back dispatch —
//!   not admission — so a tenant's queued backlog waits while its slots are
//!   full and other tenants' work flows past it.
//!
//! Weights and caps come from a [`QueuePolicy`]. Its default — weight 1 and
//! no cap for every tenant — is what plain `ayb serve` runs with; the
//! service passes its configured weights and running quotas. Runs without
//! `tenant`/`priority` manifest extras (everything `ayb submit` and
//! `JobServer::submit` write) form one tenant with one lane, so they start
//! in submission order.
//!
//! The structure is purely in-memory and deterministic: dispatch order is a
//! function of the push/pop/finish call sequence alone, which is what lets
//! the fairness tests assert exact bounds (an adversarial tenant flooding
//! the queue delays an equal-weight tenant's k-th run by at most `2k` pops).
//! Starvation bound: with `T` active tenants and weights `w_i`, a tenant
//! with weight `w` waits at most `sum(w_i) - w` dispatches between two of
//! its own — never unboundedly, whatever the backlog skew.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

/// Dispatch priority of a submitted run within its tenant. Priorities order
/// runs *within* one tenant only — they never let one tenant preempt
/// another's credits (that is what weights are for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Dispatched before everything else the tenant has queued.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Dispatched only when the tenant has nothing else queued.
    Low,
}

impl Priority {
    /// Lane index (0 = highest).
    fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Canonical lower-case name (`high`/`normal`/`low`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a priority name; unknown names are an error so a typo in a
    /// submission surfaces instead of silently landing in `normal`.
    pub fn parse(text: &str) -> Result<Priority, String> {
        match text {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(format!("unknown priority `{other}` (high|normal|low)")),
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Scheduling parameters of one tenant in a [`QueuePolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Dispatches per round-robin cycle (min 1); a weight-3 tenant gets
    /// three runs dispatched for every one of a weight-1 tenant while both
    /// have work queued.
    pub weight: u32,
    /// Maximum runs of this tenant executing at once (0 = unlimited). A
    /// tenant at its cap is skipped by the rotation without spending
    /// credits; its backlog stays queued.
    pub max_running: usize,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            weight: 1,
            max_running: 0,
        }
    }
}

/// The round-robin's configuration: the policy of every tenant without an
/// override, and the overrides. The default (weight 1, no running cap, no
/// overrides) is plain `ayb serve`'s.
#[derive(Debug, Clone, Default)]
pub struct QueuePolicy {
    /// Policy applied to tenants not listed in `tenants`.
    pub default: TenantPolicy,
    /// Per-tenant overrides, by tenant name.
    pub tenants: Vec<(String, TenantPolicy)>,
}

/// One tenant's queue state inside a [`WrrQueue`].
#[derive(Debug, Default)]
struct TenantLanes {
    /// `lanes[0]` = high, `[1]` = normal, `[2]` = low; FIFO within a lane.
    lanes: [VecDeque<String>; 3],
    policy: TenantPolicy,
    /// Credits left in the current round-robin cycle.
    credit: u32,
    /// Runs of this tenant currently executing (via [`WrrQueue::pop`],
    /// decremented by [`WrrQueue::finished`]).
    running: usize,
}

impl TenantLanes {
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn pop_best(&mut self) -> Option<String> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }

    fn at_cap(&self) -> bool {
        self.policy.max_running > 0 && self.running >= self.policy.max_running
    }
}

/// Weighted round-robin queue across tenants (see the module docs).
#[derive(Debug, Default)]
pub struct WrrQueue {
    policy: QueuePolicy,
    /// `BTreeMap` so the rotation order is deterministic (lexicographic by
    /// tenant name), independent of insertion order.
    tenants: BTreeMap<String, TenantLanes>,
    /// Tenant last served; the next pop starts strictly after it.
    cursor: Option<String>,
    /// Dispatched-but-unfinished run → tenant, so `finished` can release
    /// the right tenant's running slot.
    running: HashMap<String, String>,
}

impl WrrQueue {
    /// An empty queue dispatching under `policy`.
    pub fn new(policy: QueuePolicy) -> WrrQueue {
        WrrQueue {
            policy,
            ..WrrQueue::default()
        }
    }

    fn lanes_mut(&mut self, tenant: &str) -> &mut TenantLanes {
        let policy = &self.policy;
        self.tenants.entry(tenant.to_string()).or_insert_with(|| {
            let policy = policy
                .tenants
                .iter()
                .find(|(name, _)| name == tenant)
                .map_or(&policy.default, |(_, policy)| policy)
                .clone();
            TenantLanes {
                credit: policy.weight.max(1),
                policy,
                ..TenantLanes::default()
            }
        })
    }

    /// Enqueues a run at the back of `tenant`'s `priority` lane.
    pub fn push(&mut self, run_id: String, tenant: &str, priority: Priority) {
        self.lanes_mut(tenant).lanes[priority.lane()].push_back(run_id);
    }

    /// Number of queued (undispatched) runs across all tenants.
    pub fn len(&self) -> usize {
        self.tenants.values().map(TenantLanes::queued).sum()
    }

    /// Whether no run is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes a queued run (any tenant, any lane), returning whether it was
    /// present. Dispatched runs are not affected.
    pub fn remove(&mut self, run_id: &str) -> bool {
        for lanes in self.tenants.values_mut() {
            for lane in &mut lanes.lanes {
                if let Some(at) = lane.iter().position(|id| id == run_id) {
                    lane.remove(at);
                    return true;
                }
            }
        }
        false
    }

    /// Dispatches the next run per the WRR rotation, or `None` when every
    /// queued tenant is at its running cap (or nothing is queued).
    pub fn pop(&mut self) -> Option<String> {
        // First pass spends existing credits; when they are exhausted the
        // cycle ends, every tenant refills, and the second pass dispatches.
        for _ in 0..2 {
            if let Some(id) = self.try_pop() {
                return Some(id);
            }
            let any_eligible = self
                .tenants
                .values()
                .any(|lanes| lanes.queued() > 0 && !lanes.at_cap());
            if !any_eligible {
                return None;
            }
            for lanes in self.tenants.values_mut() {
                lanes.credit = lanes.policy.weight.max(1);
            }
        }
        None
    }

    fn try_pop(&mut self) -> Option<String> {
        let keys: Vec<String> = self.tenants.keys().cloned().collect();
        if keys.is_empty() {
            return None;
        }
        let start = match &self.cursor {
            Some(cursor) => keys
                .iter()
                .position(|key| key.as_str() > cursor.as_str())
                .unwrap_or(0),
            None => 0,
        };
        for offset in 0..keys.len() {
            let key = &keys[(start + offset) % keys.len()];
            let lanes = self.tenants.get_mut(key).expect("tenant key exists");
            if lanes.credit == 0 || lanes.queued() == 0 || lanes.at_cap() {
                continue;
            }
            let id = lanes.pop_best().expect("non-empty tenant pops");
            lanes.credit -= 1;
            lanes.running += 1;
            self.running.insert(id.clone(), key.clone());
            self.cursor = Some(key.clone());
            return Some(id);
        }
        None
    }

    /// Releases the running slot of a dispatched run (call once per pop,
    /// whatever the execution outcome). Unknown ids are ignored.
    pub fn finished(&mut self, run_id: &str) {
        if let Some(tenant) = self.running.remove(run_id) {
            if let Some(lanes) = self.tenants.get_mut(&tenant) {
                lanes.running = lanes.running.saturating_sub(1);
            }
        }
    }

    /// Runs of `tenant` currently dispatched and unfinished.
    pub fn running_of(&self, tenant: &str) -> usize {
        self.tenants
            .get(tenant)
            .map(|lanes| lanes.running)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wrr(pairs: &[(&str, u32, usize)]) -> WrrQueue {
        WrrQueue::new(QueuePolicy {
            default: TenantPolicy::default(),
            tenants: pairs
                .iter()
                .map(|(name, weight, cap)| {
                    (
                        name.to_string(),
                        TenantPolicy {
                            weight: *weight,
                            max_running: *cap,
                        },
                    )
                })
                .collect(),
        })
    }

    fn drain(queue: &mut WrrQueue) -> Vec<String> {
        let mut order = Vec::new();
        while let Some(id) = queue.pop() {
            queue.finished(&id); // immediate completion: caps never bind
            order.push(id);
        }
        order
    }

    #[test]
    fn priority_parses_and_prints() {
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(Priority::parse(p.as_str()).unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
        }
        assert!(Priority::parse("urgent").is_err());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn equal_weights_alternate_strictly() {
        // The adversary floods 10 runs before the victim's 3 ever arrive;
        // equal weights still interleave 1:1, so the victim's k-th run
        // departs within 2k pops of the first dispatch — the WRR wait bound
        // the service's fairness rests on.
        let mut queue = wrr(&[]);
        for i in 0..10 {
            queue.push(format!("a{i}"), "adversary", Priority::Normal);
        }
        for i in 0..3 {
            queue.push(format!("v{i}"), "victim", Priority::Normal);
        }
        let order = drain(&mut queue);
        assert_eq!(order.len(), 13);
        for k in 0..3 {
            let at = order
                .iter()
                .position(|id| id == &format!("v{k}"))
                .expect("victim run dispatched");
            assert!(
                at <= 2 * (k + 1),
                "victim run {k} dispatched at position {at}, bound {}",
                2 * (k + 1)
            );
        }
    }

    #[test]
    fn weights_skew_the_rotation() {
        // Weight 3 vs 1: each full cycle dispatches three `heavy` runs and
        // one `light` run (tenants rotate in name order within a cycle).
        let mut queue = wrr(&[("heavy", 3, 0), ("light", 1, 0)]);
        for i in 0..9 {
            queue.push(format!("h{i}"), "heavy", Priority::Normal);
        }
        for i in 0..3 {
            queue.push(format!("l{i}"), "light", Priority::Normal);
        }
        let order = drain(&mut queue);
        let heavy_in_first_eight = order[..8].iter().filter(|id| id.starts_with('h')).count();
        assert_eq!(heavy_in_first_eight, 6, "order: {order:?}");
        // Light never starves: one dispatch per cycle of four.
        for k in 0..3 {
            let at = order.iter().position(|id| id == &format!("l{k}")).unwrap();
            assert!(at <= 4 * (k + 1), "light run {k} at {at}");
        }
    }

    #[test]
    fn priority_lanes_order_within_a_tenant() {
        let mut queue = wrr(&[]);
        queue.push("low".into(), "t", Priority::Low);
        queue.push("normal".into(), "t", Priority::Normal);
        queue.push("high".into(), "t", Priority::High);
        queue.push("normal2".into(), "t", Priority::Normal);
        assert_eq!(drain(&mut queue), vec!["high", "normal", "normal2", "low"]);
    }

    #[test]
    fn running_cap_holds_back_dispatch_without_blocking_others() {
        let mut queue = wrr(&[("capped", 1, 1)]);
        queue.push("c0".into(), "capped", Priority::Normal);
        queue.push("c1".into(), "capped", Priority::Normal);
        queue.push("o0".into(), "other", Priority::Normal);

        assert_eq!(queue.pop().as_deref(), Some("c0"));
        assert_eq!(queue.running_of("capped"), 1);
        // `capped` is at its cap: its backlog waits, `other` flows past.
        assert_eq!(queue.pop().as_deref(), Some("o0"));
        assert_eq!(queue.pop(), None, "only capped work left, cap binds");
        assert_eq!(queue.len(), 1);
        queue.finished("c0");
        assert_eq!(queue.pop().as_deref(), Some("c1"));
    }

    #[test]
    fn remove_frees_a_queued_run_only() {
        let mut queue = wrr(&[]);
        queue.push("q".into(), "t", Priority::Normal);
        let popped = {
            queue.push("r".into(), "t", Priority::Normal);
            queue.pop().unwrap()
        };
        assert_eq!(popped, "q");
        assert!(!queue.remove("q"), "dispatched runs are not removable");
        assert!(queue.remove("r"));
        assert!(!queue.remove("r"));
        assert!(queue.is_empty());
        // The dispatched run's slot is still accounted.
        assert_eq!(queue.running_of("t"), 1);
        queue.finished("q");
        assert_eq!(queue.running_of("t"), 0);
    }

    #[test]
    fn fifo_queue_preserves_submission_order() {
        // Untagged runs are one tenant with one lane under the default
        // policy: the round-robin degenerates to submission order.
        let mut queue = WrrQueue::new(QueuePolicy::default());
        for id in ["a", "b", "c", "d"] {
            queue.push(id.into(), "default", Priority::Normal);
        }
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.pop().as_deref(), Some("a"));
        assert_eq!(queue.pop().as_deref(), Some("b"), "no running cap binds");
        assert!(queue.remove("c"));
        assert_eq!(drain(&mut queue), vec!["d"]);
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn unknown_tenants_use_the_default_policy() {
        let mut queue = WrrQueue::new(QueuePolicy {
            default: TenantPolicy {
                weight: 2,
                max_running: 1,
            },
            tenants: Vec::new(),
        });
        queue.push("x0".into(), "anybody", Priority::Normal);
        queue.push("x1".into(), "anybody", Priority::Normal);
        assert_eq!(queue.pop().as_deref(), Some("x0"));
        assert_eq!(queue.pop(), None, "default max_running=1 binds");
        queue.finished("x0");
        assert_eq!(queue.pop().as_deref(), Some("x1"));
    }

    #[test]
    fn finished_is_idempotent_and_ignores_unknown_ids() {
        let mut queue = wrr(&[]);
        queue.push("a".into(), "t", Priority::Normal);
        let id = queue.pop().unwrap();
        queue.finished(&id);
        queue.finished(&id);
        queue.finished("never-dispatched");
        assert_eq!(queue.running_of("t"), 0);
    }
}
