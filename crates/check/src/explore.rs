//! Explicit-state exploration (the Murphi-style search).
//!
//! The search is a **level-synchronized, sharded-frontier BFS**. States are
//! partitioned across `opts.threads` shards by fingerprint; each shard owns
//! a slice of the visited set and of the current frontier. One BFS level at
//! a time, every shard's frontier is expanded (in parallel on the
//! `cord_sim::par` pool when the level is big enough to pay for fan-out),
//! successors are canonicalized and routed to their owning shard by
//! `fingerprint % shards`, and a serial merge step folds the per-worker
//! batches in worker order. Because sharding is a pure function of the
//! fingerprint and the merge is ordered, the resulting [`Report`] is
//! **bit-identical at any thread count** — parallelism changes wall-clock
//! time and nothing else. The level structure also makes truncation
//! deterministic: the cap is checked between levels, never mid-level.
//!
//! On top of the search sits **symmetry reduction** (Murphi's scalarset
//! idea): every successor is mapped to the lexicographically-least member
//! of its orbit under the model's thread-permutation group before
//! fingerprinting (see [`Symmetry`]), so a litmus test with interchangeable
//! threads explores each equivalence class once. Final-state outcomes are
//! re-expanded over the orbit, keeping the reported outcome set *exactly*
//! equal to an unreduced search — downstream consumers like the fuzz
//! containment oracle never observe the reduction. `CORD_CHECK_SYM=0`
//! disables it. Directory-ID symmetry is exploited one level up:
//! [`explore_all_placements`] explores one representative per class of
//! directory-relabeled placements and shares the report.
//!
//! The visited set stores 64-bit state fingerprints rather than full
//! states, and the frontier holds the only owned copy of each state. The
//! per-successor work is kept allocation-light in three ways:
//!
//! * **Copy-on-write states.** A [`State`] keeps its threads and
//!   directories behind `Arc`s, so a successor shares every thread and
//!   directory its transition left alone: building one copies the `mem` and
//!   `net` vectors plus a pointer per thread and directory, not every
//!   per-thread and per-directory table. Canonicalization likewise shares
//!   threads and writes its images into per-worker scratch states.
//! * **One-pass fingerprints.** `fingerprint` gathers the bytes `State`'s
//!   `Hash` emits into a reused buffer and runs SipHash over it once, rather
//!   than through hundreds of small writes. SipHash is a streaming hash, so
//!   the value is exactly the streamed one.
//! * **Pass-through visited sets.** A fingerprint is already a SipHash
//!   output, so the `seen` sets use it as its own hash instead of hashing
//!   it again.
//!
//! With a 64-bit fingerprint the collision probability for the \<10M-state
//! spaces explored here is negligible (~n²/2⁶⁵), but set
//! `CORD_CHECK_AUDIT=1` to run with a full state map that panics on any
//! fingerprint collision — and, when symmetry reduction is active, to
//! re-run the search unreduced and assert both agree on outcomes and
//! deadlock-freedom.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::litmus::Litmus;
use crate::model::{CanonScratch, CheckConfig, Model, State, Symmetry};

/// Result of exhaustively exploring one model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Distinct states visited (canonical representatives when symmetry
    /// reduction is active).
    pub states: usize,
    /// Final-state observations: registers (thread-major, 4 per thread)
    /// followed by final memory values. Exact — independent of symmetry
    /// reduction and thread count.
    pub outcomes: BTreeSet<Vec<u64>>,
    /// Reachable stuck states that are not final (deadlocks), rendered for
    /// diagnosis.
    pub deadlocks: Vec<String>,
    /// Whether exploration hit the state cap (results then incomplete).
    pub truncated: bool,
}

impl Report {
    /// Outcomes matching any of the test's forbidden conditions (borrowed
    /// from the outcome set — matching allocates nothing).
    pub fn violations<'a>(&'a self, lit: &Litmus) -> Vec<&'a Vec<u64>> {
        self.outcomes
            .iter()
            .filter(|flat| {
                let split = flat.len() - lit.vars as usize;
                let (reg_flat, mem) = flat.split_at(split);
                lit.forbidden.iter().any(|c| c.matches_flat(reg_flat, mem))
            })
            .collect()
    }

    /// Three-way verdict of the exploration against `lit`.
    ///
    /// A violation or deadlock found among the explored states is a
    /// [`Verdict::Fail`] whether or not the search was truncated — evidence
    /// of a bug does not expire because the search stopped early. A
    /// truncated search that found nothing is [`Verdict::Inconclusive`]:
    /// the unexplored remainder could still hide a violation, so it is
    /// neither a pass nor a failure.
    pub fn verdict(&self, lit: &Litmus) -> Verdict {
        if !self.deadlocks.is_empty() || !self.violations(lit).is_empty() {
            Verdict::Fail
        } else if self.truncated {
            Verdict::Inconclusive
        } else {
            Verdict::Pass
        }
    }

    /// Whether the protocol satisfied the test: exploration complete, no
    /// forbidden outcome, no deadlock. Shorthand for
    /// `self.verdict(lit) == Verdict::Pass`; callers that must distinguish
    /// a truncated (inconclusive) search from an actual failure should use
    /// [`Report::verdict`].
    pub fn passes(&self, lit: &Litmus) -> bool {
        self.verdict(lit) == Verdict::Pass
    }
}

/// Outcome of one exploration against one litmus test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Complete exploration, no forbidden outcome, no deadlock.
    Pass,
    /// The state cap truncated the search before any violation was found:
    /// the explored prefix is clean but the result proves nothing.
    Inconclusive,
    /// A forbidden outcome or deadlock is reachable.
    Fail,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Pass => "pass",
            Verdict::Inconclusive => "inconclusive",
            Verdict::Fail => "fail",
        })
    }
}

/// Worker count for a single exploration: `CORD_CHECK_THREADS` when set and
/// ≥ 1, else 1. The default is deliberately serial — placement campaigns
/// and suite sweeps already parallelize *across* explorations on
/// `CORD_THREADS`, and nesting both pools would oversubscribe the machine.
/// Set `CORD_CHECK_THREADS` when one big exploration dominates (deep litmus
/// shapes, the fuzz containment oracle on a fat scenario).
pub fn check_thread_count() -> usize {
    if let Ok(v) = std::env::var("CORD_CHECK_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    1
}

/// Exploration knobs; [`ExploreOpts::from_env`] is what [`explore`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOpts {
    /// Frontier shards / expansion workers (1 = serial).
    pub threads: usize,
    /// Canonicalize states under the model's symmetry group.
    pub symmetry: bool,
    /// Keep a full state map, panic on fingerprint collisions, and (with
    /// symmetry on) re-run unreduced to cross-check the reduction.
    pub audit: bool,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        ExploreOpts {
            threads: 1,
            symmetry: true,
            audit: false,
        }
    }
}

impl ExploreOpts {
    /// Reads `CORD_CHECK_THREADS` / `CORD_CHECK_SYM` / `CORD_CHECK_AUDIT`.
    pub fn from_env() -> Self {
        ExploreOpts {
            threads: check_thread_count(),
            symmetry: std::env::var_os("CORD_CHECK_SYM").is_none_or(|v| v != "0"),
            audit: std::env::var_os("CORD_CHECK_AUDIT").is_some_and(|v| v != "0"),
        }
    }
}

/// Search-shape counters from one exploration (all deterministic: identical
/// at any thread count).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Largest BFS level (states expanded in one synchronized step).
    pub peak_frontier: usize,
    /// Number of BFS levels expanded.
    pub levels: usize,
    /// Order of the symmetry group used (1 = no reduction).
    pub symmetry_order: usize,
    /// Frontier size at each BFS level, in level order — the search-shape
    /// time series (thread-count independent, like every other field).
    pub frontier: Vec<u64>,
}

/// Deterministic 64-bit state fingerprint (SipHash with fixed keys): the
/// bytes `s`'s `Hash` emits are gathered in `buf` (reused across calls)
/// and hashed in one pass, which equals hashing `s` directly.
pub(crate) fn fingerprint(s: &State, buf: &mut Vec<u8>) -> u64 {
    buf.clear();
    s.hash(&mut ByteSink(buf));
    let mut h = DefaultHasher::new();
    h.write(buf);
    h.finish()
}

/// A `Hasher` that records the bytes it is fed instead of hashing them.
struct ByteSink<'a>(&'a mut Vec<u8>);

impl Hasher for ByteSink<'_> {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a ByteSink records bytes; fingerprint hashes them")
    }
}

/// The hasher of fingerprint-keyed sets and maps. A fingerprint is already
/// a SipHash output, so it serves as its own hash — rotated, because one
/// shard's fingerprints share their residue modulo the shard count, which
/// would otherwise pin the low bits that pick a bucket.
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("fingerprint sets are keyed by u64 only")
    }

    fn write_u64(&mut self, fp: u64) {
        self.0 = fp.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of state fingerprints.
pub(crate) type FpSet = HashSet<u64, BuildHasherDefault<FpHasher>>;
/// A map keyed by state fingerprint.
pub(crate) type FpMap<V> = HashMap<u64, V, BuildHasherDefault<FpHasher>>;

/// Below this frontier size a level is expanded inline: forking the worker
/// pool costs more than hashing a handful of states.
const PAR_LEVEL_MIN: usize = 64;

/// One worker's share of the search: a slice of the visited set plus the
/// frontier states it owns.
#[derive(Default)]
struct Shard {
    seen: FpSet,
    frontier: Vec<State>,
    audit_map: FpMap<State>,
}

/// Everything one worker produced from expanding its frontier slice for one
/// level, routed for the merge step.
struct LevelOut {
    /// Successors by destination shard (`fingerprint % shards`).
    outbox: Vec<Vec<(u64, State)>>,
    /// Outcomes of final states expanded this level (orbit-expanded when
    /// symmetry reduction is active).
    outcomes: Vec<Vec<u64>>,
    /// Stuck non-final states expanded this level.
    deadlocks: Vec<State>,
}

fn expand_shard(
    model: &Model,
    sym: Option<&Symmetry>,
    states: &[State],
    shards: usize,
) -> LevelOut {
    let mut out = LevelOut {
        outbox: (0..shards).map(|_| Vec::new()).collect(),
        outcomes: Vec::new(),
        deadlocks: Vec::new(),
    };
    let mut succ: Vec<State> = Vec::new();
    let mut buf = Vec::new();
    let mut scratch = CanonScratch::default();
    for s in states {
        model.successors_into(s, &mut succ);
        if succ.is_empty() {
            if model.is_final(s) {
                let outcome = s.outcome();
                if let Some(sy) = sym {
                    out.outcomes.append(&mut sy.orbit_outcomes(&outcome));
                }
                out.outcomes.push(outcome);
            } else {
                out.deadlocks.push(s.clone());
            }
            continue;
        }
        for n in succ.drain(..) {
            let n = match sym {
                Some(sy) => sy.canonicalize(n, &mut scratch),
                None => n,
            };
            let fp = fingerprint(&n, &mut buf);
            out.outbox[(fp % shards as u64) as usize].push((fp, n));
        }
    }
    out
}

/// Exhaustively explores `lit` under `cfg` with variables homed per
/// `placement`, using the environment-selected options
/// ([`ExploreOpts::from_env`]).
///
/// With `CORD_CHECK_AUDIT=1` and symmetry reduction active on a model with
/// a non-trivial group, the search is re-run unreduced and both runs must
/// agree on the outcome set and on deadlock-freedom (skipped when either
/// run truncated — their explored prefixes are incomparable).
///
/// # Panics
///
/// Panics if a directory lookup table overflows (the processor-side
/// provisioning checks are supposed to make that unreachable — an overflow
/// is a protocol bug), or, under audit, on a fingerprint collision or a
/// symmetry-reduction disagreement.
pub fn explore(cfg: &CheckConfig, lit: &Litmus, placement: &[u8], cap: usize) -> Report {
    let opts = ExploreOpts::from_env();
    let (report, stats) = explore_with(cfg, lit, placement, cap, opts);
    if opts.audit && opts.symmetry && stats.symmetry_order > 1 {
        let raw_opts = ExploreOpts {
            symmetry: false,
            ..opts
        };
        let (raw, _) = explore_with(cfg, lit, placement, cap, raw_opts);
        if !report.truncated && !raw.truncated {
            assert_eq!(
                report.outcomes, raw.outcomes,
                "symmetry reduction changed the outcome set of {} on {placement:?}",
                lit.name
            );
            assert_eq!(
                report.deadlocks.is_empty(),
                raw.deadlocks.is_empty(),
                "symmetry reduction changed deadlock-freedom of {} on {placement:?}",
                lit.name
            );
        }
    }
    report
}

/// [`explore`] with explicit options, also returning search-shape counters.
///
/// The report is bit-identical for any `opts.threads` ≥ 1: sharding is a
/// pure function of the state fingerprint, workers exchange successors only
/// at level boundaries, and the merge folds worker batches in input order.
pub fn explore_with(
    cfg: &CheckConfig,
    lit: &Litmus,
    placement: &[u8],
    cap: usize,
    opts: ExploreOpts,
) -> (Report, ExploreStats) {
    let model = Model::new(cfg, lit, placement);
    let shards_n = opts.threads.max(1);
    let sym = if opts.symmetry {
        Some(model.symmetry()).filter(|s| !s.is_trivial())
    } else {
        None
    };
    let mut stats = ExploreStats {
        peak_frontier: 0,
        levels: 0,
        symmetry_order: sym.as_ref().map_or(1, Symmetry::order),
        frontier: Vec::new(),
    };
    let mut shards: Vec<Shard> = (0..shards_n).map(|_| Shard::default()).collect();
    let init = {
        let s = model.init();
        match &sym {
            Some(sy) => sy.canonicalize(s, &mut CanonScratch::default()),
            None => s,
        }
    };
    let fp0 = fingerprint(&init, &mut Vec::new());
    let home = &mut shards[(fp0 % shards_n as u64) as usize];
    home.seen.insert(fp0);
    if opts.audit {
        home.audit_map.insert(fp0, init.clone());
    }
    home.frontier.push(init);

    let mut outcomes = BTreeSet::new();
    let mut deadlocks: Vec<String> = Vec::new();
    let mut truncated = false;
    loop {
        let frontier_total: usize = shards.iter().map(|sh| sh.frontier.len()).sum();
        if frontier_total == 0 {
            break;
        }
        let seen_total: usize = shards.iter().map(|sh| sh.seen.len()).sum();
        if seen_total >= cap {
            truncated = true;
            break;
        }
        stats.peak_frontier = stats.peak_frontier.max(frontier_total);
        stats.levels += 1;
        stats.frontier.push(frontier_total as u64);
        let inputs: Vec<Vec<State>> = shards
            .iter_mut()
            .map(|sh| std::mem::take(&mut sh.frontier))
            .collect();
        let level_threads = if frontier_total >= PAR_LEVEL_MIN {
            shards_n
        } else {
            1
        };
        let mut outs = cord_sim::par::run_parallel_on(level_threads, &inputs, |states| {
            expand_shard(&model, sym.as_ref(), states, shards_n)
        });
        // Merge, serially and in deterministic order. Deadlocks found this
        // level are sorted (the frontier is a set — its partition across
        // shards must not show through in the report)…
        let mut level_deadlocks: Vec<State> = outs
            .iter_mut()
            .flat_map(|o| o.deadlocks.drain(..))
            .collect();
        level_deadlocks.sort_unstable();
        for s in &level_deadlocks {
            if deadlocks.len() < 4 {
                deadlocks.push(format!("{s:?}"));
            } else {
                deadlocks.push(String::from("…"));
            }
        }
        // …and each destination shard folds worker batches in worker order.
        for o in outs {
            for outcome in o.outcomes {
                outcomes.insert(outcome);
            }
            for (k, batch) in o.outbox.into_iter().enumerate() {
                let shard = &mut shards[k];
                for (fp, n) in batch {
                    if shard.seen.insert(fp) {
                        if opts.audit {
                            shard.audit_map.insert(fp, n.clone());
                        }
                        shard.frontier.push(n);
                    } else if opts.audit {
                        let prior = shard
                            .audit_map
                            .get(&fp)
                            .expect("audited fingerprint has a state");
                        assert!(
                            *prior == n,
                            "64-bit fingerprint collision: {fp:#x} covers two distinct \
                             states\n  a: {prior:?}\n  b: {n:?}"
                        );
                    }
                }
            }
        }
    }
    let report = Report {
        states: shards.iter().map(|sh| sh.seen.len()).sum(),
        outcomes,
        deadlocks,
        truncated,
    };
    (report, stats)
}

/// Renames directory IDs by order of first appearance: `[2, 0, 2]` →
/// `[0, 1, 0]`. Two placements with equal keys differ only by a directory
/// relabeling.
fn dir_class_key(placement: &[u8]) -> Vec<u8> {
    let mut map: HashMap<u8, u8> = HashMap::new();
    placement
        .iter()
        .map(|&d| {
            let next = map.len() as u8;
            *map.entry(d).or_insert(next)
        })
        .collect()
}

/// Explores every placement variant of `lit` in parallel (worker count from
/// `CORD_THREADS`); returns `(placement, report)` pairs in the deterministic
/// placement-enumeration order regardless of thread count.
///
/// Placements that are equal up to a relabeling of directory IDs (e.g.
/// `[0, 1]` and `[1, 0]`) produce identical reports: a directory
/// permutation is an automorphism of the transition system, and outcomes
/// are indexed by thread and variable, never by directory. Only one
/// representative per class is explored; the rest share its report. The
/// one directory-sensitive field is the rendered deadlock diagnostics, so
/// a report containing deadlocks is never shared — those placements are
/// re-explored directly.
pub fn explore_all_placements(
    cfg: &CheckConfig,
    lit: &Litmus,
    cap: usize,
) -> Vec<(Vec<u8>, Report)> {
    // Placements may name more directories than cfg.dirs; clamp.
    let placements: Vec<Vec<u8>> = lit
        .placements()
        .into_iter()
        .map(|p| p.into_iter().map(|d| d % cfg.dirs).collect())
        .collect();
    let mut rep_of_class: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut reps: Vec<Vec<u8>> = Vec::new();
    let class_of: Vec<usize> = placements
        .iter()
        .map(|p| {
            *rep_of_class.entry(dir_class_key(p)).or_insert_with(|| {
                reps.push(p.clone());
                reps.len() - 1
            })
        })
        .collect();
    let rep_reports = cord_sim::par::run_parallel(&reps, |p| explore(cfg, lit, p, cap));
    placements
        .into_iter()
        .zip(class_of)
        .map(|(p, c)| {
            let shared = &rep_reports[c];
            let report = if shared.deadlocks.is_empty() || p == reps[c] {
                shared.clone()
            } else {
                explore(cfg, lit, &p, cap)
            };
            (p, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus::dsl::*;
    use crate::litmus::Cond;

    fn mp_shape() -> Litmus {
        Litmus::new(
            "MP",
            vec![vec![w(0, 1), wrel(1, 1)], vec![wacq(1, 1), r(0, 0)]],
            2,
            vec![Cond::regs(vec![(1, 0, 0)])],
        )
    }

    /// Two interchangeable writer threads racing on one variable: the
    /// symmetry group is non-trivial, so reduction actually kicks in.
    fn symmetric_race() -> Litmus {
        Litmus::new(
            "2W-sym",
            vec![
                vec![wrel(0, 1), racq(1, 0)],
                vec![wrel(0, 1), racq(1, 0)],
                vec![wrel(1, 1)],
            ],
            2,
            vec![],
        )
    }

    #[test]
    fn cord_passes_mp_shape_everywhere() {
        let lit = mp_shape();
        for (p, report) in explore_all_placements(&CheckConfig::cord(2, 2), &lit, 1_000_000) {
            assert!(
                report.passes(&lit),
                "placement {p:?}: {:?}",
                report.violations(&lit)
            );
            assert!(report.states > 10);
            assert!(!report.outcomes.is_empty());
        }
    }

    #[test]
    fn so_passes_mp_shape() {
        let lit = mp_shape();
        for (p, report) in explore_all_placements(&CheckConfig::so(2, 2), &lit, 1_000_000) {
            assert!(report.passes(&lit), "placement {p:?}");
        }
    }

    #[test]
    fn mp_passes_two_thread_mp_shape() {
        // Point-to-point ordering suffices for the 2-thread pattern: both
        // stores use the same channel when vars share a home, and the
        // consumer polls its local memory.
        let lit = mp_shape();
        let report = explore(&CheckConfig::mp(2, 1), &lit, &[0, 0], 1_000_000);
        assert!(report.passes(&lit), "{:?}", report.violations(&lit));
    }

    #[test]
    fn mp_violates_mp_shape_across_directories() {
        // With X and Y homed on different destinations the two posted
        // writes travel different channels and can reorder: the forbidden
        // (r1=1, r0=0) outcome becomes reachable. This is the §3.2 argument
        // in its simplest form.
        let lit = mp_shape();
        let report = explore(&CheckConfig::mp(2, 2), &lit, &[0, 1], 1_000_000);
        assert!(
            !report.violations(&lit).is_empty(),
            "expected the destination-ordering violation to be reachable"
        );
    }

    #[test]
    fn truncation_is_reported() {
        let lit = mp_shape();
        let report = explore(&CheckConfig::cord(2, 2), &lit, &[0, 1], 4);
        assert!(report.truncated);
    }

    #[test]
    fn truncated_clean_search_is_inconclusive_not_failed() {
        let lit = mp_shape();
        // Tiny cap: nothing violating is reachable in 4 states, so the
        // search is clean but truncated — inconclusive, not a failure.
        let report = explore(&CheckConfig::cord(2, 2), &lit, &[0, 1], 4);
        assert_eq!(report.verdict(&lit), Verdict::Inconclusive);
        assert!(!report.passes(&lit), "inconclusive still isn't a pass");
        // A violation found before truncation is a Fail even when truncated.
        let full = explore(&CheckConfig::mp(2, 2), &lit, &[0, 1], 1_000_000);
        assert_eq!(full.verdict(&lit), Verdict::Fail);
        let complete = explore(&CheckConfig::cord(2, 2), &lit, &[0, 1], 1_000_000);
        assert_eq!(complete.verdict(&lit), Verdict::Pass);
        assert_eq!(format!("{}", Verdict::Inconclusive), "inconclusive");
    }

    #[test]
    fn audited_exploration_matches_plain() {
        // The audit map catches fingerprint collisions; on these small
        // spaces it must agree exactly with the fingerprint-only search.
        let base = ExploreOpts::default();
        for lit in [mp_shape(), symmetric_race()] {
            let cfg = CheckConfig::cord(lit.thread_count(), 2);
            let audited = explore_with(
                &cfg,
                &lit,
                &[0, 1],
                1_000_000,
                ExploreOpts {
                    audit: true,
                    ..base
                },
            );
            let plain = explore_with(&cfg, &lit, &[0, 1], 1_000_000, base);
            assert_eq!(audited, plain, "{}", lit.name);
        }
    }

    #[test]
    fn parallel_report_is_bit_identical_to_serial() {
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        for symmetry in [false, true] {
            let serial = explore_with(
                &cfg,
                &lit,
                &[0, 1],
                1_000_000,
                ExploreOpts {
                    threads: 1,
                    symmetry,
                    audit: false,
                },
            );
            for threads in [2, 3, 8] {
                let par = explore_with(
                    &cfg,
                    &lit,
                    &[0, 1],
                    1_000_000,
                    ExploreOpts {
                        threads,
                        symmetry,
                        audit: false,
                    },
                );
                assert_eq!(par, serial, "threads={threads} symmetry={symmetry}");
            }
        }
    }

    #[test]
    fn parallel_truncation_is_deterministic() {
        // The cap is checked at level boundaries, so even a truncated
        // search reports identical states/outcomes at any width.
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let serial = explore_with(&cfg, &lit, &[0, 1], 8, ExploreOpts::default());
        assert!(serial.0.truncated);
        for threads in [2, 8] {
            let par = explore_with(
                &cfg,
                &lit,
                &[0, 1],
                8,
                ExploreOpts {
                    threads,
                    ..ExploreOpts::default()
                },
            );
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn symmetry_reduces_states_but_not_outcomes() {
        let lit = symmetric_race();
        let cfg = CheckConfig::cord(3, 2);
        let base = ExploreOpts::default();
        let (reduced, rstats) = explore_with(&cfg, &lit, &[0, 1], 1_000_000, base);
        let (raw, wstats) = explore_with(
            &cfg,
            &lit,
            &[0, 1],
            1_000_000,
            ExploreOpts {
                symmetry: false,
                ..base
            },
        );
        assert_eq!(rstats.symmetry_order, 2, "two interchangeable threads");
        assert_eq!(wstats.symmetry_order, 1);
        assert!(
            reduced.states < raw.states,
            "reduction must shrink the space: {} !< {}",
            reduced.states,
            raw.states
        );
        assert_eq!(reduced.outcomes, raw.outcomes, "outcome set stays exact");
        assert_eq!(reduced.truncated, raw.truncated);
        assert!(reduced.deadlocks.is_empty() && raw.deadlocks.is_empty());
    }

    #[test]
    fn asymmetric_models_have_trivial_symmetry() {
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let (_, stats) = explore_with(&cfg, &lit, &[0, 1], 1_000_000, ExploreOpts::default());
        assert_eq!(stats.symmetry_order, 1, "MP threads run different code");
    }

    #[test]
    fn dir_isomorphic_placements_share_identical_reports() {
        // MP's placement list contains [0, 1] and [1, 0] — the same model
        // up to a directory relabeling. The shared report must be exactly
        // what a direct exploration produces.
        let lit = mp_shape();
        let cfg = CheckConfig::cord(2, 2);
        let all = explore_all_placements(&cfg, &lit, 1_000_000);
        let find = |p: &[u8]| {
            all.iter()
                .find(|(q, _)| q == p)
                .map(|(_, r)| r.clone())
                .expect("placement enumerated")
        };
        let ab = find(&[0, 1]);
        let ba = find(&[1, 0]);
        assert_eq!(ab, ba, "isomorphic placements diverged");
        let direct = explore(&cfg, &lit, &[1, 0], 1_000_000);
        assert_eq!(ba, direct, "shared report differs from direct exploration");
    }

    #[test]
    fn buffered_fingerprint_equals_streamed_siphash() {
        let mut buf = Vec::new();
        let mut total = 0;
        for (label, cfg, lit, placement) in crate::scaling_suite() {
            let states = Model::new(&cfg, &lit, &placement).reachable();
            for s in &states {
                let mut h = DefaultHasher::new();
                s.hash(&mut h);
                assert_eq!(fingerprint(s, &mut buf), h.finish(), "{label}: {s:?}");
            }
            total += states.len();
        }
        assert_eq!(total, 70_060, "every reachable state of both fixtures");
    }

    #[test]
    fn dir_class_key_normalizes_first_appearance() {
        assert_eq!(dir_class_key(&[2, 0, 2]), vec![0, 1, 0]);
        assert_eq!(dir_class_key(&[0, 1]), dir_class_key(&[1, 0]));
        assert_ne!(dir_class_key(&[0, 0]), dir_class_key(&[0, 1]));
        assert!(dir_class_key(&[]).is_empty());
    }
}
