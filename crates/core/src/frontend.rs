//! The protocol-independent core frontend.
//!
//! Executes a [`Program`] in order: asks the protocol engine to issue each
//! operation, blocks on loads, retries stalled operations when the engine
//! wakes it, implements acquire-polling ([`Op::WaitValue`]) with a poll
//! interval, and attributes stalled time to [`StallCause`]s (paper Fig. 2).
//!
//! The frontend is a pure state machine: it emits [`FeAction`]s that the
//! system runner turns into scheduled events. Stale events are filtered by a
//! generation counter, so lost/duplicate wakeups cannot double-issue.

use std::collections::HashMap;

use cord_proto::{CoreCtx, CoreEffect, CoreProtocol, CostModel, Issue, Op, Program, StallCause};
use cord_sim::trace::Tracer;
use cord_sim::{StallTracker, Time};

/// Scheduling requests the frontend hands to the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeAction {
    /// Attempt the next issue at `at` (valid only for generation `gen`).
    StepAt {
        /// Absolute time of the step.
        at: Time,
        /// Generation the step is valid for.
        gen: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeState {
    /// A step event is scheduled; waiting for it to fire.
    Scheduled,
    /// The engine reported a stall; waiting for an engine wake.
    Blocked(StallCause),
    /// Waiting for a load value.
    WaitLoad { reg: Option<u8>, poll: Option<u64> },
    /// Waiting for a non-load completion.
    WaitOp,
    /// Program finished.
    Done,
}

/// Per-core program executor, owning the run's one copy of its program.
#[derive(Debug)]
pub struct Frontend {
    /// Read in place; moved in by [`System`](crate::System), and by a
    /// sharded run into the owning partition's frontend (and back when the
    /// run succeeds).
    pub(crate) program: Program,
    pc: usize,
    regs: [u64; 16],
    state: FeState,
    gen: u64,
    issue_cost: Time,
    store_issue: Time,
    inject_bytes_per_ns: u64,
    poll_interval: Time,
    finish: Option<Time>,
    stalls: HashMap<StallCause, StallTracker>,
    open_stall: Option<(StallCause, Time)>,
    polls: u64,
}

impl Frontend {
    /// Creates a frontend for `program` with the given cost model.
    ///
    /// The caller must schedule the initial step for generation 0 at the
    /// start time (see [`Frontend::initial_action`]).
    pub fn new(program: Program, costs: &CostModel) -> Self {
        Frontend {
            program,
            pc: 0,
            regs: [0; 16],
            state: FeState::Scheduled,
            gen: 0,
            issue_cost: costs.issue,
            store_issue: costs.store_issue,
            inject_bytes_per_ns: costs.inject_bytes_per_ns.max(1),
            poll_interval: costs.poll_interval,
            finish: None,
            stalls: HashMap::new(),
            open_stall: None,
            polls: 0,
        }
    }

    /// The initial scheduling request (step at time zero, generation 0).
    pub fn initial_action(&self) -> FeAction {
        FeAction::StepAt {
            at: Time::ZERO,
            gen: 0,
        }
    }

    /// Whether the program has fully executed.
    pub fn is_done(&self) -> bool {
        matches!(self.state, FeState::Done)
    }

    /// Time the last operation completed, if done.
    pub fn finish_time(&self) -> Option<Time> {
        self.finish
    }

    /// Final register file (observations for tests/litmus-style programs).
    pub fn regs(&self) -> &[u64; 16] {
        &self.regs
    }

    /// Current generation (stamped into scheduled steps).
    pub fn gen(&self) -> u64 {
        self.gen
    }

    /// Current program counter (diagnostics).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// The operation currently being executed, if any (diagnostics).
    pub fn current_op(&self) -> Option<&Op> {
        self.program.op(self.pc)
    }

    /// Total stalled time attributed to `cause`.
    pub fn stall_time(&self, cause: StallCause) -> Time {
        self.stalls.get(&cause).map_or(Time::ZERO, |t| t.total())
    }

    /// All stall totals.
    pub fn stall_totals(&self) -> impl Iterator<Item = (StallCause, Time)> + '_ {
        self.stalls.iter().map(|(&c, t)| (c, t.total()))
    }

    /// Number of flag polls performed (diagnostics).
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Time the core's pipeline is occupied issuing `op`: stores pay the
    /// write-through path cost plus payload injection at the core's
    /// store-drain bandwidth; everything else is one issue slot.
    fn op_cost(&self, op: &Op) -> Time {
        match *op {
            Op::Store { bytes, .. } => {
                self.store_issue + Time::from_ps(bytes as u64 * 1000 / self.inject_bytes_per_ns)
            }
            Op::AtomicRmw { .. } => self.store_issue,
            _ => self.issue_cost,
        }
    }

    fn begin_stall(&mut self, cause: StallCause, now: Time) {
        if self.open_stall.is_none() {
            self.open_stall = Some((cause, now));
            self.stalls.entry(cause).or_default().begin(now);
        }
    }

    fn end_stall(&mut self, now: Time) {
        if let Some((cause, _start)) = self.open_stall.take() {
            self.stalls.entry(cause).or_default().end(now);
        }
    }

    /// The stall episode currently open, if any: `(cause, since)`. The
    /// runner diffs this around frontend callbacks to emit stall trace
    /// events.
    pub fn open_stall(&self) -> Option<(StallCause, Time)> {
        self.open_stall
    }

    /// Closes any still-open stall episode at drain time `now`, so a core
    /// that ends the run blocked (e.g. under a truncated event budget or a
    /// buggy config) still attributes its trailing stall.
    pub fn flush_stalls(&mut self, now: Time) {
        if let Some((cause, _start)) = self.open_stall.take() {
            self.stalls.entry(cause).or_default().flush(now);
        }
    }

    fn advance(&mut self, at: Time, acts: &mut Vec<FeAction>) {
        self.pc += 1;
        self.reschedule(at, acts);
    }

    fn reschedule(&mut self, at: Time, acts: &mut Vec<FeAction>) {
        self.gen += 1;
        self.state = FeState::Scheduled;
        acts.push(FeAction::StepAt { at, gen: self.gen });
    }

    /// Attempts to issue the operation at the current pc.
    fn try_issue<E: CoreProtocol>(
        &mut self,
        now: Time,
        engine: &mut E,
        fx: &mut Vec<CoreEffect>,
        acts: &mut Vec<FeAction>,
        trace: Option<&mut Tracer>,
    ) {
        let Some(&op) = self.program.op(self.pc) else {
            self.end_stall(now);
            self.state = FeState::Done;
            self.finish = Some(now);
            return;
        };
        if let Op::Compute { dur } = op {
            self.end_stall(now);
            self.pc += 1;
            self.reschedule(now + dur, acts);
            return;
        }
        let mut ctx = CoreCtx::traced(now, fx, trace);
        match engine.issue(&op, &mut ctx) {
            Issue::Done => {
                self.end_stall(now);
                let cost = self.op_cost(&op);
                self.advance(now + cost, acts);
            }
            Issue::Pending => {
                self.end_stall(now);
                self.state = match op {
                    Op::Load { reg, .. } | Op::BulkRead { reg, .. } | Op::AtomicRmw { reg, .. } => {
                        FeState::WaitLoad {
                            reg: Some(reg),
                            poll: None,
                        }
                    }
                    Op::WaitValue { expect, .. } => {
                        self.polls += 1;
                        FeState::WaitLoad {
                            reg: None,
                            poll: Some(expect),
                        }
                    }
                    _ => FeState::WaitOp,
                };
            }
            Issue::Stall(cause) => {
                self.begin_stall(cause, now);
                self.state = FeState::Blocked(cause);
            }
        }
    }

    /// Handles a scheduled step event (ignores stale generations).
    pub fn on_step<E: CoreProtocol>(
        &mut self,
        gen: u64,
        now: Time,
        engine: &mut E,
        fx: &mut Vec<CoreEffect>,
        acts: &mut Vec<FeAction>,
        trace: Option<&mut Tracer>,
    ) {
        if gen != self.gen || !matches!(self.state, FeState::Scheduled) {
            return; // stale event
        }
        self.try_issue(now, engine, fx, acts, trace);
    }

    /// Handles an engine wake (retry a stalled issue; ignored otherwise).
    pub fn on_wake<E: CoreProtocol>(
        &mut self,
        now: Time,
        engine: &mut E,
        fx: &mut Vec<CoreEffect>,
        acts: &mut Vec<FeAction>,
        trace: Option<&mut Tracer>,
    ) {
        if matches!(self.state, FeState::Blocked(_)) {
            self.try_issue(now, engine, fx, acts, trace);
        }
    }

    /// Handles a completed load.
    ///
    /// # Panics
    ///
    /// Panics if no load is waiting — that indicates an engine bug.
    pub fn on_load_done(&mut self, value: u64, now: Time, acts: &mut Vec<FeAction>) {
        let FeState::WaitLoad { reg, poll } = self.state else {
            panic!("LoadDone with no waiting load (state {:?})", self.state);
        };
        match poll {
            Some(expect) => {
                // Flags are monotonic (iteration counters): a producer may
                // have advanced past the awaited value, so wait for ≥.
                if value >= expect {
                    self.advance(now + self.issue_cost, acts);
                } else {
                    // Poll again after the backoff interval.
                    self.reschedule(now + self.poll_interval, acts);
                }
            }
            None => {
                if let Some(r) = reg {
                    self.regs[r as usize] = value;
                }
                self.advance(now + self.issue_cost, acts);
            }
        }
    }

    /// Handles a completed non-load operation.
    ///
    /// # Panics
    ///
    /// Panics if no operation is waiting.
    pub fn on_op_done(&mut self, now: Time, acts: &mut Vec<FeAction>) {
        assert!(
            matches!(self.state, FeState::WaitOp),
            "OpDone with no waiting op (state {:?})",
            self.state
        );
        self.advance(now + self.issue_cost, acts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_mem::Addr;
    use cord_proto::{LoadOrd, NodeRef};

    /// Scripted engine for driving the frontend in isolation.
    struct ScriptEngine {
        responses: Vec<Issue>,
        issued: Vec<&'static str>,
    }

    impl CoreProtocol for ScriptEngine {
        fn issue(&mut self, op: &Op, _ctx: &mut CoreCtx<'_>) -> Issue {
            self.issued.push(op.mnemonic());
            self.responses.remove(0)
        }
        fn on_msg(&mut self, _f: NodeRef, _k: cord_proto::MsgKind, _c: &mut CoreCtx<'_>) {}
    }

    fn costs() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn runs_to_completion_and_records_finish() {
        let p = Program::build()
            .store_relaxed(Addr::new(0), 1)
            .compute(Time::from_ns(10))
            .store_release(Addr::new(64), 2)
            .finish();
        let mut fe = Frontend::new(p, &costs());
        let mut eng = ScriptEngine {
            responses: vec![Issue::Done, Issue::Done],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        // step chain: each on_step issues one op and schedules the next
        let mut pending = vec![fe.initial_action()];
        let mut now;
        while let Some(FeAction::StepAt { at, gen }) = pending.pop() {
            now = at;
            fe.on_step(gen, now, &mut eng, &mut fx, &mut acts, None);
            pending.append(&mut acts);
        }
        assert!(fe.is_done());
        assert!(fe.finish_time().unwrap() >= Time::from_ns(10));
        assert_eq!(eng.issued, vec!["st.rlx", "st.rel"]);
    }

    #[test]
    fn stall_then_wake_attributes_time() {
        let p = Program::build().store_release(Addr::new(0), 1).finish();
        let mut fe = Frontend::new(p, &costs());
        let mut eng = ScriptEngine {
            responses: vec![Issue::Stall(StallCause::AckWait), Issue::Done],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        fe.on_step(0, Time::from_ns(100), &mut eng, &mut fx, &mut acts, None);
        assert!(acts.is_empty(), "blocked: nothing scheduled");
        // engine wake 50 ns later
        fe.on_wake(Time::from_ns(150), &mut eng, &mut fx, &mut acts, None);
        assert_eq!(fe.stall_time(StallCause::AckWait), Time::from_ns(50));
        assert_eq!(acts.len(), 1);
    }

    #[test]
    fn poll_retries_until_expected_value() {
        let p = Program::build().wait_value(Addr::new(0), 7).finish();
        let mut fe = Frontend::new(p, &costs());
        let mut eng = ScriptEngine {
            responses: vec![Issue::Pending, Issue::Pending],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        fe.on_step(0, Time::ZERO, &mut eng, &mut fx, &mut acts, None);
        // first poll comes back wrong
        fe.on_load_done(0, Time::from_ns(40), &mut acts);
        let FeAction::StepAt { at, gen } = acts[0];
        assert_eq!(at, Time::from_ns(40) + costs().poll_interval);
        // retry issues the wait again
        fe.on_step(gen, at, &mut eng, &mut fx, &mut acts, None);
        // now the value matches
        fe.on_load_done(7, at + Time::from_ns(30), &mut acts);
        assert_eq!(fe.polls(), 2);
        // final step ends the program
        let FeAction::StepAt { at: at2, gen: gen2 } = *acts.last().unwrap();
        fe.on_step(gen2, at2, &mut eng, &mut fx, &mut acts, None);
        assert!(fe.is_done());
    }

    #[test]
    fn stale_steps_and_spurious_wakes_are_ignored() {
        let p = Program::build().store_relaxed(Addr::new(0), 1).finish();
        let mut fe = Frontend::new(p, &costs());
        let mut eng = ScriptEngine {
            responses: vec![Issue::Done],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        fe.on_wake(Time::ZERO, &mut eng, &mut fx, &mut acts, None); // not blocked: ignored
        assert!(eng.issued.is_empty());
        fe.on_step(99, Time::ZERO, &mut eng, &mut fx, &mut acts, None); // wrong gen
        assert!(eng.issued.is_empty());
        fe.on_step(0, Time::ZERO, &mut eng, &mut fx, &mut acts, None);
        assert_eq!(eng.issued.len(), 1);
        // the old gen-0 step arriving again is stale now
        fe.on_step(0, Time::from_ns(1), &mut eng, &mut fx, &mut acts, None);
        assert_eq!(eng.issued.len(), 1);
    }

    #[test]
    fn load_writes_register() {
        let p = Program::build()
            .load(Addr::new(0), 8, LoadOrd::Acquire, 3)
            .finish();
        let mut fe = Frontend::new(p, &costs());
        let mut eng = ScriptEngine {
            responses: vec![Issue::Pending],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        fe.on_step(0, Time::ZERO, &mut eng, &mut fx, &mut acts, None);
        fe.on_load_done(55, Time::from_ns(10), &mut acts);
        assert_eq!(fe.regs()[3], 55);
    }

    #[test]
    fn empty_program_finishes_immediately() {
        let mut fe = Frontend::new(Program::new(), &costs());
        let mut eng = ScriptEngine {
            responses: vec![],
            issued: vec![],
        };
        let mut fx = Vec::new();
        let mut acts = Vec::new();
        fe.on_step(0, Time::ZERO, &mut eng, &mut fx, &mut acts, None);
        assert!(fe.is_done());
        assert_eq!(fe.finish_time(), Some(Time::ZERO));
    }
}
