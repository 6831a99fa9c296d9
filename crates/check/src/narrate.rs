//! Counterexample narration: when a model reaches a forbidden outcome, find
//! one shortest violating interleaving and render it as an ordered,
//! human-readable event narrative.
//!
//! The search is the same breadth-first enumeration as [`explore`], with a
//! parent map over state fingerprints. BFS guarantees the reconstructed
//! interleaving is shortest (fewest transitions), which keeps narratives
//! tight. The recovered [`Step`] sequence is then replayed through the
//! simulator's tracer vocabulary: each step maps to a
//! [`cord_sim::trace::TraceData`] event where one exists (stores, commits,
//! notifications), so counterexamples read exactly like simulator traces;
//! steps with no tracer analogue (loads, fences, acknowledgments) are
//! rendered in the same format by hand.
//!
//! [`explore`]: crate::explore

use std::collections::VecDeque;

use cord_sim::trace::{render_event, TraceData, TraceEvent};
use cord_sim::Time;

use cord_proto::{FenceKind, StoreOrd};

use crate::explore::{fingerprint, FpMap, FpSet};
use crate::litmus::{LOp, Litmus};
use crate::model::{CheckConfig, Model, NetMsg, State, Step};

/// A reconstructed forbidden interleaving.
#[derive(Debug, Clone)]
pub struct Narrative {
    /// The ordered steps of the violating interleaving.
    pub steps: Vec<Step>,
    /// One rendered line per step, tracer-style.
    pub lines: Vec<String>,
    /// The forbidden final outcome: registers (thread-major) then memory.
    pub outcome: Vec<u64>,
}

impl Narrative {
    /// The full narrative as one printable block.
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

fn is_forbidden(lit: &Litmus, s: &State) -> bool {
    let flat = s.outcome();
    let split = flat.len() - lit.vars as usize;
    let (reg_flat, mem) = flat.split_at(split);
    lit.forbidden.iter().any(|c| c.matches_flat(reg_flat, mem))
}

/// Searches for a forbidden outcome of `lit` under `cfg` with variables
/// homed per `placement`, and returns a shortest violating interleaving —
/// or `None` if no forbidden outcome is reachable within `cap` states
/// (i.e. the protocol passes the test, or the cap truncated the search).
pub fn narrate_violation(
    cfg: &CheckConfig,
    lit: &Litmus,
    placement: &[u8],
    cap: usize,
) -> Option<Narrative> {
    let model = Model::new(cfg, lit, placement);
    let init = model.init();
    let mut buf = Vec::new();
    let init_fp = fingerprint(&init, &mut buf);
    let mut seen = FpSet::default();
    let mut parent: FpMap<(u64, Step)> = FpMap::default();
    let mut queue: VecDeque<State> = VecDeque::new();
    seen.insert(init_fp);
    queue.push_back(init.clone());
    let mut target: Option<u64> = None;
    'search: while let Some(s) = queue.pop_front() {
        let fp = fingerprint(&s, &mut buf);
        let succ = model.successors_labeled(&s);
        if succ.is_empty() {
            if model.is_final(&s) && is_forbidden(lit, &s) {
                target = Some(fp);
                break 'search;
            }
            continue;
        }
        for (step, n) in succ {
            if seen.len() >= cap {
                break 'search;
            }
            let nfp = fingerprint(&n, &mut buf);
            if seen.insert(nfp) {
                parent.insert(nfp, (fp, step));
                queue.push_back(n);
            }
        }
    }
    let target = target?;

    // Walk the parent chain back to the initial state.
    let mut steps: Vec<Step> = Vec::new();
    let mut cur = target;
    while cur != init_fp {
        let (prev, step) = parent.remove(&cur).expect("parent chain reaches init");
        steps.push(step);
        cur = prev;
    }
    steps.reverse();

    // Replay the steps to annotate reads with the values they observed.
    let mut lines = Vec::new();
    let mut state = init;
    for (i, step) in steps.iter().enumerate() {
        let next = model
            .successors_labeled(&state)
            .into_iter()
            .find(|(st, _)| st == step)
            .map(|(_, n)| n)
            .expect("recorded step is enabled on replay");
        lines.push(render_step(i, step, &next));
        state = next;
    }
    let outcome = state.outcome();
    Some(Narrative {
        steps,
        lines,
        outcome,
    })
}

/// Renders one step at logical time `i` ns, via the tracer's event renderer
/// wherever a [`TraceData`] analogue exists.
fn render_step(i: usize, step: &Step, after: &State) -> String {
    let at = Time::from_ns(i as u64);
    let via = |data: TraceData| {
        render_event(&TraceEvent {
            at,
            seq: i as u64,
            data,
        })
    };
    let hand = |body: String| {
        let ps = at.as_ps();
        format!("[{:>7}.{:03} ns] {body}", ps / 1000, ps % 1000)
    };
    match step {
        Step::Thread { t, op } => {
            let core = *t as u32;
            match *op {
                LOp::Store { var, val, ord } => via(TraceData::StoreIssue {
                    core,
                    tid: val,
                    addr: var as u64,
                    bytes: 8,
                    release: ord == StoreOrd::Release,
                    epoch: None,
                }),
                LOp::FetchAdd { var, add, ord, .. } => via(TraceData::StoreIssue {
                    core,
                    tid: add,
                    addr: var as u64,
                    bytes: 8,
                    release: ord == StoreOrd::Release,
                    epoch: None,
                }),
                LOp::Load { var, reg, .. } => {
                    let val = after.regs()[*t as usize][reg as usize];
                    hand(format!("core{core}: load v{var} -> r{reg} = {val}"))
                }
                LOp::WaitAcq { var, val } => {
                    hand(format!("core{core}: wait.acq v{var} == {val} satisfied"))
                }
                LOp::Fence(kind) => hand(format!(
                    "core{core}: fence.{}",
                    match kind {
                        FenceKind::Acquire => "acq",
                        FenceKind::Release => "rel",
                        FenceKind::Full => "full",
                    }
                )),
            }
        }
        Step::Deliver(msg) => match *msg {
            NetMsg::CordRelaxed {
                t, dir, var, ep, ..
            } => via(TraceData::StoreCommit {
                dir: dir as u32,
                core: t as u32,
                tid: 0,
                addr: var as u64,
                release: false,
                epoch: Some(ep),
            }),
            NetMsg::CordRelease {
                t, dir, var, ep, ..
            } => match var {
                Some(v) => via(TraceData::StoreCommit {
                    dir: dir as u32,
                    core: t as u32,
                    tid: 0,
                    addr: v as u64,
                    release: true,
                    epoch: Some(ep),
                }),
                None => hand(format!(
                    "dir{dir}: commit empty release from core{t} ep={ep}"
                )),
            },
            NetMsg::ReqNotify {
                t, pend, ep, dst, ..
            } => via(TraceData::NotifyRequest {
                core: t as u32,
                pending_dir: pend as u32,
                dst_dir: dst as u32,
                epoch: ep,
            }),
            NetMsg::Notify { t, dst, ep } => via(TraceData::NotifyArrive {
                dir: dst as u32,
                core: t as u32,
                epoch: ep,
            }),
            NetMsg::CordAck { t, ep, dir } => {
                hand(format!("core{t}: ack from dir{dir} for epoch {ep}"))
            }
            NetMsg::AtomicReq {
                t,
                dir,
                var,
                ep,
                release,
                ..
            } => via(TraceData::StoreCommit {
                dir: dir as u32,
                core: t as u32,
                tid: 0,
                addr: var as u64,
                release: release.is_some(),
                epoch: Some(ep),
            }),
            NetMsg::AtomicResp { t, old, reg, .. } => {
                hand(format!("core{t}: atomic response old={old} -> r{reg}"))
            }
            NetMsg::SoStore { t, dir, var, val } => hand(format!(
                "dir{dir}: commit st (SO) v{var}={val} from core{t}"
            )),
            NetMsg::SoAck { t } => hand(format!("core{t}: store acknowledged (SO)")),
            NetMsg::MpWrite {
                t,
                dir,
                var,
                val,
                seq,
            } => hand(format!(
                "dir{dir}: commit posted write v{var}={val} from core{t} (chan seq {seq})"
            )),
        },
    }
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

    #[test]
    fn cord_mp_shape_has_no_narrative() {
        let lit = mp_shape();
        assert!(
            narrate_violation(&CheckConfig::cord(2, 2), &lit, &[0, 1], 1_000_000).is_none(),
            "CORD passes MP: there must be no violating interleaving"
        );
    }

    #[test]
    fn mp_across_directories_narrates_the_reordering() {
        // The §3.2 destination-ordering failure: X and Y homed on different
        // destinations, the two posted writes reorder.
        let lit = mp_shape();
        let n = narrate_violation(&CheckConfig::mp(2, 2), &lit, &[0, 1], 1_000_000)
            .expect("MP across directories violates the MP shape");
        assert_eq!(n.steps.len(), n.lines.len());
        assert!(!n.lines.is_empty());
        // The narrative must show the data write committing only after the
        // flag was read as set — i.e. contain both commits and the read.
        let all = n.render();
        assert!(all.contains("commit posted write"), "{all}");
        assert!(all.contains("wait.acq"), "{all}");
        // Forbidden outcome: thread 1's r0 == 0.
        assert_eq!(n.outcome[4], 0, "r0 of thread 1 is 0: {:?}", n.outcome);
    }

    #[test]
    fn narrative_lines_are_ordered_and_prefixed() {
        let lit = mp_shape();
        let n = narrate_violation(&CheckConfig::mp(2, 2), &lit, &[0, 1], 1_000_000).unwrap();
        for (i, line) in n.lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("[{:>7}.000 ns]", i)),
                "line {i} misses its logical timestamp: {line}"
            );
        }
    }
}
