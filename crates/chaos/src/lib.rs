//! Deterministic fault-injection failpoints for the GraphBIG serving stack.
//!
//! A *failpoint* is a named site in the engine or runtime where a fault can
//! be forced: a delay, a spurious admission rejection, a forced deadline
//! expiry or cancellation, a panic, or an epoch republish. Which faults fire
//! where is declared by a [`FaultPlan`] — a JSON document, like
//! `MixSpec` — and armed process-wide with [`arm`]. Every trigger decision
//! is a **pure function of the plan seed, the site name, and the request
//! key**, so a chaotic run is replayable bit-for-bit from one seed and is
//! independent of thread scheduling.
//!
//! Feature-gated: with the
//! `failpoints` feature off (the default), [`failpoint!`] expands to an
//! inlined `None` and none of the registry machinery is compiled — zero
//! cost in the hot path. With the feature on but no plan armed, each site
//! costs one relaxed atomic load.
//!
//! ```no_run
//! use graphbig_chaos::{self as chaos, FaultPlan};
//!
//! let plan: FaultPlan = graphbig_json::from_str(r#"{...}"#).unwrap();
//! chaos::arm(&plan);
//! // ... run the chaotic mix ...
//! chaos::disarm();
//! ```

#![warn(missing_docs)]

use graphbig_json::{json_enum, json_struct};

/// Key value meaning "this context has no chaos identity"; keyed failpoints
/// never fire for it. Used by untargeted cancel tokens (e.g. the sequential
/// oracle) so they stay immune even while a plan is armed.
pub const NO_KEY: u64 = u64::MAX;

/// Panic message used by chaos-injected panics. The quiet panic hook
/// ([`install_quiet_panic_hook`]) suppresses the default report for panics
/// whose payload starts with this marker.
pub const PANIC_MSG: &str = "chaos-injected panic";

/// What a firing failpoint does to its site.
///
/// Not every site honours every action; sites ignore actions they cannot
/// express (e.g. `RejectQueueFull` outside admission). `Delay` is honoured
/// at every site and is performed by [`fire`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for the spec's `delay_us` microseconds at the site.
    Delay,
    /// Admission: report a spurious queue-full rejection (and roll back the
    /// already-reserved slot/cost).
    RejectQueueFull,
    /// Admission: report a spurious cost-budget rejection.
    RejectCostBudget,
    /// Force the query to be treated as past its deadline.
    DeadlineExpire,
    /// Force the query's cancel token to report cancellation.
    Cancel,
    /// Panic with [`PANIC_MSG`] (sites that are panic-safe only).
    Panic,
    /// Traffic driver: republish the current snapshot as a new epoch
    /// mid-mix.
    Republish,
    /// Engine result-cache insert path: store a corrupted output so a
    /// later cache hit serves a wrong answer. The sequential-oracle digest
    /// comparison must flag the run — proving the oracle actually guards
    /// the cache path, not just the compute path.
    CorruptCache,
    /// Engine resolve path: deliver the response twice, violating the
    /// resolved-once invariant on purpose (exercises the invariant sweep
    /// and the flight-recorder failure dump).
    DoubleResolve,
    /// Overlay read path: answer a point query from the base snapshot
    /// alone, ignoring the delta overlay — a stale read. The
    /// rebuild-from-scratch oracle must flag the run, proving it guards
    /// the overlay path and not just the base kernels.
    StaleRead,
}

json_enum!(FaultAction {
    Delay,
    RejectQueueFull,
    RejectCostBudget,
    DeadlineExpire,
    Cancel,
    Panic,
    Republish,
    DoubleResolve,
    CorruptCache,
    StaleRead
});

/// How a [`FaultSpec`] decides whether to fire for a given key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every hit.
    Always,
    /// Fire with probability `p`, decided by hashing `(seed, site, key)` —
    /// deterministic per key, schedule-independent.
    Probability,
    /// Fire when `key % n == 0` (first attempt of every n-th request for
    /// keyed sites; every n-th hit for counted sites).
    EveryNth,
    /// Fire exactly for the keys listed in `schedule`.
    Schedule,
}

json_enum!(Trigger {
    Always,
    Probability,
    EveryNth,
    Schedule
});

/// One failpoint activation: a site, a trigger, and an action.
///
/// All fields are always present in the JSON form; `p`, `n`, and `schedule`
/// are read only by the matching [`Trigger`], and `delay_us` only by
/// [`FaultAction::Delay`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Failpoint site name, e.g. `"engine.admit"` (see DESIGN.md §9).
    pub site: String,
    /// Trigger kind.
    pub trigger: Trigger,
    /// Action taken when the trigger fires.
    pub action: FaultAction,
    /// Probability in `[0, 1]` for [`Trigger::Probability`].
    pub p: f64,
    /// Modulus for [`Trigger::EveryNth`] (0 never fires).
    pub n: u64,
    /// Explicit key list for [`Trigger::Schedule`].
    pub schedule: Vec<u64>,
    /// Sleep length in microseconds for [`FaultAction::Delay`].
    pub delay_us: u64,
}

json_struct!(FaultSpec {
    site,
    trigger,
    action,
    p,
    n,
    schedule,
    delay_us
});

/// A seeded, replayable fault-injection plan plus the client retry policy.
///
/// Declared as JSON (like `MixSpec`) and armed process-wide with [`arm`].
/// The same plan and seed always produce the same fault decisions for the
/// same request keys.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for probabilistic triggers and client backoff jitter.
    pub seed: u64,
    /// Client-side resubmission attempts after a rejection (0 = no retry).
    pub max_retries: u64,
    /// First retry backoff in microseconds (doubles per attempt).
    pub backoff_base_us: u64,
    /// Upper bound on the exponential backoff.
    pub backoff_cap_us: u64,
    /// The failpoint activations.
    pub faults: Vec<FaultSpec>,
}

json_struct!(FaultPlan {
    seed,
    max_retries,
    backoff_base_us,
    backoff_cap_us,
    faults
});

impl FaultPlan {
    /// A plan that injects nothing and never retries — `run_mix` semantics.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            max_retries: 0,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            faults: Vec::new(),
        }
    }

    /// True when the plan has no faults to inject.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// A fault handed back to a call site: the action plus its delay parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What the site should do.
    pub action: FaultAction,
}

impl Fault {
    /// True when the site should panic with [`PANIC_MSG`].
    pub fn is_panic(&self) -> bool {
        self.action == FaultAction::Panic
    }
}

/// `splitmix64` finalizer — the same mixing function as `datagen::rng`,
/// inlined here so the crate stays dependency-free below `graphbig-json`.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site name, so trigger decisions depend on the site.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Pure trigger decision: does `spec` fire at `site` for `key` under `seed`?
///
/// Exposed so tests (and the invariant checker) can predict exactly which
/// keys a plan hits without running anything.
pub fn decides(seed: u64, spec: &FaultSpec, key: u64) -> bool {
    match spec.trigger {
        Trigger::Always => true,
        Trigger::Probability => {
            let h = mix64(seed ^ site_hash(&spec.site) ^ mix64(key));
            // Map the top 53 bits to [0, 1) exactly like Rng::f64.
            let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            unit < spec.p
        }
        Trigger::EveryNth => spec.n != 0 && key.is_multiple_of(spec.n),
        Trigger::Schedule => spec.schedule.contains(&key),
    }
}

/// True when the failpoint machinery is compiled in at all.
pub fn compiled() -> bool {
    cfg!(feature = "failpoints")
}

#[cfg(feature = "failpoints")]
mod armed {
    use super::{decides, Fault, FaultAction, FaultPlan, NO_KEY};
    use graphbig_telemetry::recorder;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    /// Fast gate: one relaxed load decides "nothing armed, bail".
    static ARMED: AtomicBool = AtomicBool::new(false);
    static PLAN: Mutex<Option<ArmedPlan>> = Mutex::new(None);

    struct ArmedPlan {
        plan: FaultPlan,
        /// Hit counters for unkeyed (counted) sites, by site name.
        counters: BTreeMap<String, AtomicU64>,
        /// Fired counts per fault spec, aligned with `plan.faults`.
        fired: Vec<AtomicU64>,
    }

    pub fn arm(plan: &FaultPlan) {
        let mut slot = PLAN.lock().unwrap();
        let mut counters = BTreeMap::new();
        for f in &plan.faults {
            counters
                .entry(f.site.clone())
                .or_insert_with(|| AtomicU64::new(0));
        }
        let fired = plan.faults.iter().map(|_| AtomicU64::new(0)).collect();
        *slot = Some(ArmedPlan {
            plan: plan.clone(),
            counters,
            fired,
        });
        ARMED.store(!plan.faults.is_empty(), Ordering::Release);
    }

    pub fn disarm() {
        let mut slot = PLAN.lock().unwrap();
        ARMED.store(false, Ordering::Release);
        *slot = None;
    }

    pub fn is_armed() -> bool {
        ARMED.load(Ordering::Relaxed)
    }

    /// Fired counts since [`arm`], labelled `<site>.<action>`.
    pub fn fired_counts() -> Vec<(String, u64)> {
        let slot = PLAN.lock().unwrap();
        let Some(armed) = slot.as_ref() else {
            return Vec::new();
        };
        armed
            .plan
            .faults
            .iter()
            .zip(&armed.fired)
            .map(|(f, c)| {
                let action = graphbig_json::to_compact(&f.action);
                let action = action.trim_matches('"').to_string();
                (format!("{}.{}", f.site, action), c.load(Ordering::Relaxed))
            })
            .collect()
    }

    fn eval(site: &str, key: u64) -> Option<Fault> {
        let slot = PLAN.lock().unwrap();
        let armed = slot.as_ref()?;
        let mut hit: Option<Fault> = None;
        for (idx, spec) in armed.plan.faults.iter().enumerate() {
            if spec.site != site || !decides(armed.plan.seed, spec, key) {
                continue;
            }
            armed.fired[idx].fetch_add(1, Ordering::Relaxed);
            // Flight-record the fire with the triggering request key, so a
            // failure dump correlates injected faults with the requests
            // they hit. Off the hot path: only reached when a fault fires.
            recorder::record_full(
                recorder::EventKind::FaultFired,
                recorder::NO_LANE,
                recorder::intern(site),
                key,
                idx as u64,
            );
            if spec.action == FaultAction::Delay {
                let us = spec.delay_us;
                drop(slot);
                std::thread::sleep(Duration::from_micros(us));
                return hit;
            }
            if hit.is_none() {
                hit = Some(Fault {
                    action: spec.action,
                });
            }
        }
        hit
    }

    pub fn fire(site: &str, key: u64) -> Option<Fault> {
        if !is_armed() || key == NO_KEY {
            return None;
        }
        eval(site, key)
    }

    pub fn fire_counted(site: &str) -> Option<Fault> {
        if !is_armed() {
            return None;
        }
        let hit = {
            let slot = PLAN.lock().unwrap();
            let armed = slot.as_ref()?;
            armed
                .counters
                .get(site)
                .map(|c| c.fetch_add(1, Ordering::Relaxed))
        };
        eval(site, hit?)
    }
}

#[cfg(feature = "failpoints")]
pub use enabled_api::*;

#[cfg(feature = "failpoints")]
mod enabled_api {
    use super::{armed, Fault, FaultPlan};

    /// Arm `plan` process-wide; subsequent [`fire`](super::fire) calls
    /// consult it. Replaces any previously armed plan and resets fired
    /// counters. Chaos runs are process-serial: arm, run, [`disarm`].
    pub fn arm(plan: &FaultPlan) {
        armed::arm(plan);
    }

    /// Drop the armed plan; all failpoints become inert again.
    pub fn disarm() {
        armed::disarm();
    }

    /// True when a non-empty plan is armed.
    pub fn is_armed() -> bool {
        armed::is_armed()
    }

    /// Per-fault fired counts since the plan was armed, labelled
    /// `<site>.<action>` in plan order.
    pub fn fired_counts() -> Vec<(String, u64)> {
        armed::fired_counts()
    }

    /// Evaluate the failpoint `site` for request key `key`.
    ///
    /// `Delay` faults sleep here and return `None`; any other firing fault
    /// is returned for the site to interpret. Keys equal to
    /// [`NO_KEY`](super::NO_KEY) never fire.
    #[inline]
    pub fn fire(site: &str, key: u64) -> Option<Fault> {
        armed::fire(site, key)
    }

    /// Evaluate an unkeyed failpoint: the key is a per-site hit counter
    /// (0, 1, 2, ... since arming), so `EveryNth` means every n-th hit.
    #[inline]
    pub fn fire_counted(site: &str) -> Option<Fault> {
        armed::fire_counted(site)
    }
}

#[cfg(not(feature = "failpoints"))]
pub use disabled_api::*;

#[cfg(not(feature = "failpoints"))]
mod disabled_api {
    use super::{Fault, FaultPlan};

    /// No-op: the `failpoints` feature is off.
    pub fn arm(_plan: &FaultPlan) {}

    /// No-op: the `failpoints` feature is off.
    pub fn disarm() {}

    /// Always false: the `failpoints` feature is off.
    pub fn is_armed() -> bool {
        false
    }

    /// Always empty: the `failpoints` feature is off.
    pub fn fired_counts() -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Compiled out: always `None`, inlined away.
    #[inline(always)]
    pub fn fire(_site: &str, _key: u64) -> Option<Fault> {
        None
    }

    /// Compiled out: always `None`, inlined away.
    #[inline(always)]
    pub fn fire_counted(_site: &str) -> Option<Fault> {
        None
    }
}

/// Evaluate a failpoint site. `failpoint!("site", key)` for keyed sites,
/// `failpoint!("site")` for counted sites. Expands to an inlined `None`
/// when the `failpoints` feature is off.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::fire_counted($site)
    };
    ($site:expr, $key:expr) => {
        $crate::fire($site, $key)
    };
}

/// Install a panic hook that suppresses the default stderr report for
/// chaos-injected panics (payloads starting with [`PANIC_MSG`]) while
/// delegating everything else to the previous hook. Idempotent enough for
/// test use: installing twice just nests the delegation.
pub fn install_quiet_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with(PANIC_MSG))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.starts_with(PANIC_MSG))
            })
            .unwrap_or(false);
        if !injected {
            prev(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(site: &str, trigger: Trigger, action: FaultAction) -> FaultSpec {
        FaultSpec {
            site: site.to_string(),
            trigger,
            action,
            p: 0.5,
            n: 3,
            schedule: vec![2, 5],
            delay_us: 0,
        }
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = FaultPlan {
            seed: 7,
            max_retries: 3,
            backoff_base_us: 100,
            backoff_cap_us: 5000,
            faults: vec![
                spec(
                    "engine.admit",
                    Trigger::Probability,
                    FaultAction::RejectQueueFull,
                ),
                spec("engine.run.pre", Trigger::Schedule, FaultAction::Panic),
            ],
        };
        let text = graphbig_json::to_pretty(&plan);
        let back: FaultPlan = graphbig_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn trigger_decisions_are_deterministic_and_key_local() {
        let s = spec("engine.admit", Trigger::Probability, FaultAction::Delay);
        for key in 0..200 {
            assert_eq!(decides(9, &s, key), decides(9, &s, key));
        }
        // Not all-fire / none-fire at p = 0.5 over 200 keys.
        let hits = (0..200).filter(|k| decides(9, &s, *k)).count();
        assert!(hits > 50 && hits < 150, "p=0.5 hit {hits}/200");
        // Different seeds give different decisions somewhere.
        assert!((0..200).any(|k| decides(9, &s, k) != decides(10, &s, k)));
        // Different sites give different decisions somewhere.
        let other = spec("engine.dequeue", Trigger::Probability, FaultAction::Delay);
        assert!((0..200).any(|k| decides(9, &s, k) != decides(9, &other, k)));
    }

    #[test]
    fn probability_bounds_are_exact() {
        let mut zero = spec("s", Trigger::Probability, FaultAction::Delay);
        zero.p = 0.0;
        let mut one = spec("s", Trigger::Probability, FaultAction::Delay);
        one.p = 1.0;
        for key in 0..100 {
            assert!(!decides(1, &zero, key));
            assert!(decides(1, &one, key));
        }
    }

    #[test]
    fn every_nth_and_schedule_match_keys_exactly() {
        let nth = spec("s", Trigger::EveryNth, FaultAction::Delay);
        for key in 0..20 {
            assert_eq!(decides(0, &nth, key), key % 3 == 0);
        }
        let mut never = nth.clone();
        never.n = 0;
        assert!(!(0..20).any(|k| decides(0, &never, k)));
        let sched = spec("s", Trigger::Schedule, FaultAction::Delay);
        for key in 0..10 {
            assert_eq!(decides(0, &sched, key), key == 2 || key == 5);
        }
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn armed_registry_fires_and_counts() {
        // Process-global state: this test owns the armed plan for its
        // duration; other chaos-arming tests live in other test binaries.
        let plan = FaultPlan {
            seed: 1,
            max_retries: 0,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            faults: vec![spec("unit.site", Trigger::Schedule, FaultAction::Cancel)],
        };
        arm(&plan);
        assert!(is_armed());
        assert_eq!(
            fire("unit.site", 2).map(|f| f.action),
            Some(FaultAction::Cancel)
        );
        assert_eq!(fire("unit.site", 3), None);
        assert_eq!(fire("other.site", 2), None);
        assert_eq!(fire("unit.site", NO_KEY), None);
        let counts = fired_counts();
        assert_eq!(counts, vec![("unit.site.Cancel".to_string(), 1)]);
        disarm();
        assert!(!is_armed());
        assert_eq!(fire("unit.site", 2), None);
    }
}
