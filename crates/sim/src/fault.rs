//! Deterministic, seeded fault injection for the interconnect boundary.
//!
//! A [`FaultPlan`] decides, per message, whether the fabric delivers the
//! message cleanly, drops it, duplicates it, or delays it (jitter large
//! enough to overtake neighboring messages models inter-host reordering).
//! Decisions are **stateless hashes** of `(seed, message sequence number)`:
//! the plan holds no mutable state, so the same plan produces the same
//! decision stream regardless of sweep worker count, and cloning a plan is
//! free. The interconnect numbers messages per `(source host, destination
//! host)` channel (`cord_noc::Noc::transmit_egress`), in both of the
//! runner's engines, so a message's fate depends only on its channel and
//! its position there: one spec faults the same messages whether a run is
//! monolithic or partitioned, at any worker count. Probabilities can be
//! scoped per traffic class and per source/destination host pair, and
//! [`DegradeWindow`]s model transient link degradation (probabilities
//! multiplied within a simulated-time window).
//!
//! This crate sits below the interconnect, so traffic classes are plain
//! `usize` indices; `cord-noc` supplies the class labels and the runner
//! supplies a name→index resolver when parsing specs from `CORD_FAULTS`.
//!
//! # Example
//!
//! ```
//! use cord_sim::fault::{FaultAction, FaultPlan, FaultRule};
//! use cord_sim::Time;
//!
//! let plan = FaultPlan::new(7).with_rule(FaultRule {
//!     drop: 0.5,
//!     ..FaultRule::default()
//! });
//! let mut drops = 0;
//! for seq in 0..1000 {
//!     if matches!(plan.decide(seq, Time::ZERO, 0, 1, 0), FaultAction::Drop) {
//!         drops += 1;
//!     }
//! }
//! assert!((300..700).contains(&drops), "roughly half drop: {drops}");
//! ```

use crate::rng::splitmix64 as mix64;
use crate::time::Time;

/// What the fabric does with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver once; `extra` is the injected delay beyond the clean arrival
    /// time ([`Time::ZERO`] when the message is untouched).
    Deliver {
        /// Injected extra latency.
        extra: Time,
    },
    /// The message is lost.
    Drop,
    /// Deliver twice: the original (plus `extra`) and a duplicate trailing
    /// it by `second_extra`.
    Duplicate {
        /// Injected extra latency on the first copy.
        extra: Time,
        /// Additional lag of the duplicate behind the first copy.
        second_extra: Time,
    },
}

/// Fault probabilities for one scope (class/source/destination filter).
///
/// `None` filter fields match everything. When several rules match a
/// message, the **last** matching rule wins, so generic rules come first
/// and specific overrides later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Traffic class this rule applies to (`None` = all classes).
    pub class: Option<usize>,
    /// Source host filter (`None` = any source).
    pub src_host: Option<u32>,
    /// Destination host filter (`None` = any destination).
    pub dst_host: Option<u32>,
    /// Probability the message is dropped.
    pub drop: f64,
    /// Probability the message is duplicated (evaluated after `drop`).
    pub dup: f64,
    /// Fixed extra delay added to every matched message.
    pub delay: Time,
    /// Uniform random extra delay in `[0, jitter]`; jitter larger than the
    /// inter-message spacing reorders messages on the wire.
    pub jitter: Time,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule {
            class: None,
            src_host: None,
            dst_host: None,
            drop: 0.0,
            dup: 0.0,
            delay: Time::ZERO,
            jitter: Time::ZERO,
        }
    }
}

impl FaultRule {
    fn matches(&self, class: usize, src_host: u32, dst_host: u32) -> bool {
        self.class.is_none_or(|c| c == class)
            && self.src_host.is_none_or(|h| h == src_host)
            && self.dst_host.is_none_or(|h| h == dst_host)
    }

    fn is_noop(&self) -> bool {
        self.drop == 0.0 && self.dup == 0.0 && self.delay == Time::ZERO && self.jitter == Time::ZERO
    }
}

/// Which node-scoped unit a crash event resets (paper-level: a directory
/// controller losing its volatile ordering tables, or a host's transport
/// layer losing its retransmission bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CrashKind {
    /// Reset every directory controller on the host: ATA/CNT tables and
    /// pending cross-directory notifications are wiped.
    DirReset,
    /// Reset the host's transport: unacked buffers are replayed into a new
    /// session epoch with fresh retransmission deadlines, and old-session
    /// acks and copies become stale.
    XportReset,
}

impl CrashKind {
    /// Static label used in traces and the spec grammar.
    pub fn label(self) -> &'static str {
        match self {
            CrashKind::DirReset => "dir",
            CrashKind::XportReset => "xport",
        }
    }
}

/// A scheduled node-scoped crash, expanded from the plan by
/// [`FaultPlan::crash_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Simulated time the crash strikes.
    pub at: Time,
    /// What resets.
    pub kind: CrashKind,
    /// The host whose node(s) reset.
    pub host: u32,
}

/// One `crash.*` directive: either an explicit `(host, time)` pair or a
/// per-(window, host) probability expanded by deterministic hashing.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CrashRule {
    kind: CrashKind,
    /// Host filter; `None` means every host (explicit form `crash.K.*=NS`
    /// or the hashed rate form `crash.K=P`).
    host: Option<u32>,
    /// Explicit crash time; `None` for the hashed rate form.
    at: Option<Time>,
    /// Per-(window, host) crash probability for the rate form.
    rate: f64,
}

/// A transient link-degradation window: within `[start, end)` simulated
/// time, drop/duplicate probabilities are multiplied by `factor` (clamped
/// to 1.0) and jitter is scaled by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeWindow {
    /// Window start (inclusive).
    pub start: Time,
    /// Window end (exclusive).
    pub end: Time,
    /// Probability/jitter multiplier while inside the window.
    pub factor: f64,
}

impl DegradeWindow {
    fn factor_at(&self, now: Time) -> f64 {
        if now >= self.start && now < self.end {
            self.factor
        } else {
            1.0
        }
    }
}

/// A deterministic, seeded fault-injection plan.
///
/// See the [module documentation](self) for the decision model and
/// [`FaultPlan::parse`] for the spec grammar used by `CORD_FAULTS`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    windows: Vec<DegradeWindow>,
    crashes: Vec<CrashRule>,
}

impl FaultPlan {
    /// Creates an empty plan (no rules: every message delivered cleanly).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            windows: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Appends an explicit crash of `kind` on `host` at time `at`.
    pub fn with_crash(mut self, kind: CrashKind, host: u32, at: Time) -> Self {
        self.crashes.push(CrashRule {
            kind,
            host: Some(host),
            at: Some(at),
            rate: 0.0,
        });
        self
    }

    /// Appends a hashed crash rate: each `(degradation window, host)` pair
    /// independently crashes with probability `rate`.
    pub fn with_crash_rate(mut self, kind: CrashKind, rate: f64) -> Self {
        self.crashes.push(CrashRule {
            kind,
            host: None,
            at: None,
            rate,
        });
        self
    }

    /// Appends a rule (later rules override earlier ones on overlap).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends a degradation window.
    pub fn with_window(mut self, w: DegradeWindow) -> Self {
        self.windows.push(w);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rules, in match order (later rules override earlier ones).
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The plan's degradation windows.
    pub fn windows(&self) -> &[DegradeWindow] {
        &self.windows
    }

    /// Whether the plan can never touch a message or node.
    pub fn is_noop(&self) -> bool {
        self.rules.iter().all(FaultRule::is_noop) && self.crashes.is_empty()
    }

    /// Whether the plan contains any `crash.*` directives (node-scoped
    /// faults, as opposed to link-scoped drop/dup/delay).
    pub fn has_crashes(&self) -> bool {
        !self.crashes.is_empty()
    }

    /// Expands the plan's crash directives into a schedule for a system of
    /// `hosts` hosts.
    ///
    /// Explicit `crash.K.H=NS` directives map directly; rate directives
    /// (`crash.K=P`) are expanded by hashing `(seed, directive, window,
    /// host)` — a pure function of the plan and `hosts`, so the schedule is
    /// identical at any worker count. Rate directives require at least one
    /// degradation window (the window supplies the time span the crash
    /// lands in); with no windows they expand to nothing.
    ///
    /// The schedule is sorted by `(time, host, kind)`.
    pub fn crash_events(&self, hosts: u32) -> Vec<CrashEvent> {
        let mut out = Vec::new();
        for (ri, r) in self.crashes.iter().enumerate() {
            if let Some(at) = r.at {
                match r.host {
                    Some(h) => out.push(CrashEvent {
                        at,
                        kind: r.kind,
                        host: h,
                    }),
                    None => out.extend((0..hosts).map(|h| CrashEvent {
                        at,
                        kind: r.kind,
                        host: h,
                    })),
                }
                continue;
            }
            for (wi, w) in self.windows.iter().enumerate() {
                for h in 0..hosts {
                    let base = mix64(
                        self.seed
                            ^ mix64(
                                0xc7a5_0000_0000_0000
                                    | ((ri as u64) << 40)
                                    | ((wi as u64) << 20)
                                    | h as u64,
                            ),
                    );
                    let unit = (base >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    if unit >= r.rate {
                        continue;
                    }
                    let span = w.end.as_ps().saturating_sub(w.start.as_ps());
                    let off = if span == 0 {
                        0
                    } else {
                        mix64(base ^ 0x0ff5) % span
                    };
                    out.push(CrashEvent {
                        at: w.start + Time::from_ps(off),
                        kind: r.kind,
                        host: h,
                    });
                }
            }
        }
        out.sort_by_key(|e| (e.at, e.host, e.kind));
        out
    }

    /// Decides the fate of message number `seq` (the caller's monotonically
    /// increasing counter; `cord-noc` keeps one per channel) of `class`,
    /// sent `src_host` → `dst_host` at time `now`. Pure function of the
    /// plan and arguments.
    pub fn decide(
        &self,
        seq: u64,
        now: Time,
        src_host: u32,
        dst_host: u32,
        class: usize,
    ) -> FaultAction {
        let Some(rule) = self
            .rules
            .iter()
            .rev()
            .find(|r| r.matches(class, src_host, dst_host))
        else {
            return FaultAction::Deliver { extra: Time::ZERO };
        };
        let factor: f64 = self.windows.iter().map(|w| w.factor_at(now)).product();
        // Independent draws from one hashed base value: each decision gets
        // its own remix so drop/dup/jitter draws are decorrelated.
        let base = mix64(self.seed ^ mix64(seq));
        let unit =
            |salt: u64| -> f64 { (mix64(base ^ salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64) };
        if unit(0x6f70) < (rule.drop * factor).min(1.0) {
            return FaultAction::Drop;
        }
        let extra = {
            let jitter = (rule.jitter.as_ps() as f64 * factor) as u64;
            let j = if jitter == 0 {
                0
            } else {
                mix64(base ^ 0x6a69) % (jitter + 1)
            };
            rule.delay + Time::from_ps(j)
        };
        if unit(0x6475) < (rule.dup * factor).min(1.0) {
            let lag = (mix64(base ^ 0x6c61) % 1000) + 1; // 1..=1000 ns behind
            return FaultAction::Duplicate {
                extra,
                second_extra: Time::from_ns(lag),
            };
        }
        FaultAction::Deliver { extra }
    }

    /// Parses a fault-plan spec (the `CORD_FAULTS` grammar).
    ///
    /// `resolve` maps a traffic-class name (e.g. `"Notify"`) to its index;
    /// the asterisk `*` (all classes) never reaches the resolver.
    ///
    /// Grammar — semicolon- or comma-separated directives:
    ///
    /// ```text
    /// seed=N                     plan seed (default 1)
    /// drop[.CLASS[.SRC-DST]]=P  drop probability
    /// dup[.CLASS[.SRC-DST]]=P   duplication probability
    /// delay[.CLASS[.SRC-DST]]=NS fixed extra delay (ns)
    /// jitter[.CLASS[.SRC-DST]]=NS uniform extra delay in [0, NS] ns
    /// window=START..ENDxFACTOR   degradation window (ns, float factor)
    /// ```
    ///
    /// `CLASS` is a class name or `*`; `SRC`/`DST` are host indices or `*`.
    /// Directives sharing a scope accumulate into one rule; scoped rules are
    /// appended after unscoped ones, so specific scopes override `*` scopes.
    /// Every time (delays, jitter bounds, window bounds, crash times) is at
    /// most [`Time::SPEC_MAX`], 10^12 ns.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed directive.
    pub fn parse(spec: &str, resolve: impl Fn(&str) -> Option<usize>) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(1);
        let ns = |what: &str, v: &str| -> Result<Time, String> {
            let n: u64 = v.parse().map_err(|_| format!("bad {what} {v:?}"))?;
            Time::checked_from_ns(n)
                .filter(|t| *t <= Time::SPEC_MAX)
                .ok_or_else(|| {
                    format!(
                        "{what} {n} ns exceeds the {} ns limit",
                        Time::SPEC_MAX.as_ns()
                    )
                })
        };
        // Scope key → rule index; keeps one rule per scope, generic first.
        type RuleScope = (Option<usize>, Option<u32>, Option<u32>);
        let mut scoped: Vec<(RuleScope, FaultRule)> = Vec::new();
        for raw in spec
            .split([';', ','])
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let (key, value) = raw
                .split_once('=')
                .ok_or_else(|| format!("fault spec directive {raw:?} is not key=value"))?;
            let mut parts = key.split('.');
            let head = parts.next().unwrap_or_default();
            match head {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                    continue;
                }
                "window" => {
                    let (range, factor) = value
                        .split_once('x')
                        .ok_or_else(|| format!("bad window {value:?} (want START..ENDxFACTOR)"))?;
                    let (start, end) = range
                        .split_once("..")
                        .ok_or_else(|| format!("bad window range {range:?}"))?;
                    let (start, end) = (ns("window start", start)?, ns("window end", end)?);
                    if end < start {
                        return Err(format!("window {range:?} ends before it starts"));
                    }
                    let factor: f64 = factor
                        .parse()
                        .map_err(|_| format!("bad window factor {factor:?}"))?;
                    if !(factor.is_finite() && factor >= 0.0) {
                        return Err(format!(
                            "window factor {factor} is not a finite, non-negative number"
                        ));
                    }
                    plan.windows.push(DegradeWindow { start, end, factor });
                    continue;
                }
                "crash" => {
                    let kind = match parts.next() {
                        Some("dir") => CrashKind::DirReset,
                        Some("xport") => CrashKind::XportReset,
                        other => {
                            return Err(format!(
                                "bad crash kind {other:?} (want crash.dir or crash.xport)"
                            ))
                        }
                    };
                    let host = parts.next();
                    if parts.next().is_some() {
                        return Err(format!("too many scope segments in {key:?}"));
                    }
                    match host {
                        // Explicit form: crash.K.H=NS / crash.K.*=NS.
                        Some(h) => {
                            let host = if h == "*" {
                                None
                            } else {
                                Some(h.parse().map_err(|_| format!("bad host {h:?}"))?)
                            };
                            plan.crashes.push(CrashRule {
                                kind,
                                host,
                                at: Some(ns("crash time", value)?),
                                rate: 0.0,
                            });
                        }
                        // Rate form: crash.K=P, hashed per (window, host).
                        None => {
                            let p: f64 = value
                                .parse()
                                .map_err(|_| format!("bad probability {value:?}"))?;
                            if !(0.0..=1.0).contains(&p) {
                                return Err(format!("probability {p} out of [0, 1]"));
                            }
                            plan.crashes.push(CrashRule {
                                kind,
                                host: None,
                                at: None,
                                rate: p,
                            });
                        }
                    }
                    continue;
                }
                "drop" | "dup" | "delay" | "jitter" => {}
                other => return Err(format!("unknown fault directive {other:?}")),
            }
            let class = match parts.next() {
                None | Some("*") => None,
                Some(name) => {
                    Some(resolve(name).ok_or_else(|| format!("unknown traffic class {name:?}"))?)
                }
            };
            let (src, dst) = match parts.next() {
                None => (None, None),
                Some(pair) => {
                    let (s, d) = pair
                        .split_once('-')
                        .ok_or_else(|| format!("bad host pair {pair:?} (want SRC-DST)"))?;
                    let host = |t: &str| -> Result<Option<u32>, String> {
                        if t == "*" {
                            Ok(None)
                        } else {
                            t.parse().map(Some).map_err(|_| format!("bad host {t:?}"))
                        }
                    };
                    (host(s)?, host(d)?)
                }
            };
            if parts.next().is_some() {
                return Err(format!("too many scope segments in {key:?}"));
            }
            let scope = (class, src, dst);
            let rule = match scoped.iter_mut().find(|(s, _)| *s == scope) {
                Some((_, r)) => r,
                None => {
                    scoped.push((
                        scope,
                        FaultRule {
                            class,
                            src_host: src,
                            dst_host: dst,
                            ..FaultRule::default()
                        },
                    ));
                    &mut scoped.last_mut().expect("just pushed").1
                }
            };
            match head {
                "drop" | "dup" => {
                    let p: f64 = value
                        .parse()
                        .map_err(|_| format!("bad probability {value:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} out of [0, 1]"));
                    }
                    if head == "drop" {
                        rule.drop = p;
                    } else {
                        rule.dup = p;
                    }
                }
                _ => {
                    let t = ns(head, value)?;
                    if head == "delay" {
                        rule.delay = t;
                    } else {
                        rule.jitter = t;
                    }
                }
            }
        }
        // Fully generic scopes first so specific ones win on overlap.
        scoped.sort_by_key(|((c, s, d), _)| {
            (c.is_some() as u8) + (s.is_some() as u8) + (d.is_some() as u8)
        });
        plan.rules.extend(scoped.into_iter().map(|(_, r)| r));
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolver(name: &str) -> Option<usize> {
        ["Data", "Ack", "ReqNotify", "Notify", "Ctrl"]
            .iter()
            .position(|&n| n == name)
    }

    #[test]
    fn decisions_are_pure_functions() {
        let plan = FaultPlan::new(42).with_rule(FaultRule {
            drop: 0.2,
            dup: 0.2,
            jitter: Time::from_ns(100),
            ..FaultRule::default()
        });
        for seq in 0..256 {
            let a = plan.decide(seq, Time::from_ns(seq), 0, 1, seq as usize % 5);
            let b = plan.decide(seq, Time::from_ns(seq), 0, 1, seq as usize % 5);
            assert_eq!(a, b);
        }
        // A clone decides identically.
        let clone = plan.clone();
        assert_eq!(
            plan.decide(7, Time::ZERO, 0, 1, 0),
            clone.decide(7, Time::ZERO, 0, 1, 0)
        );
    }

    #[test]
    fn seeds_change_the_decision_stream() {
        let mk = |seed| {
            FaultPlan::new(seed).with_rule(FaultRule {
                drop: 0.5,
                ..FaultRule::default()
            })
        };
        let (a, b) = (mk(1), mk(2));
        let stream = |p: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|s| matches!(p.decide(s, Time::ZERO, 0, 1, 0), FaultAction::Drop))
                .collect()
        };
        assert_ne!(stream(&a), stream(&b));
    }

    #[test]
    fn empty_plan_is_noop() {
        let plan = FaultPlan::new(9);
        assert!(plan.is_noop());
        for seq in 0..32 {
            assert_eq!(
                plan.decide(seq, Time::ZERO, 0, 1, 0),
                FaultAction::Deliver { extra: Time::ZERO }
            );
        }
    }

    #[test]
    fn scoping_filters_class_and_hosts() {
        let plan = FaultPlan::new(3).with_rule(FaultRule {
            class: Some(3),
            src_host: Some(0),
            dst_host: Some(1),
            drop: 1.0,
            ..FaultRule::default()
        });
        for seq in 0..16 {
            assert_eq!(plan.decide(seq, Time::ZERO, 0, 1, 3), FaultAction::Drop);
            // Different class, src, or dst: untouched.
            assert!(matches!(
                plan.decide(seq, Time::ZERO, 0, 1, 2),
                FaultAction::Deliver { .. }
            ));
            assert!(matches!(
                plan.decide(seq, Time::ZERO, 1, 0, 3),
                FaultAction::Deliver { .. }
            ));
        }
    }

    #[test]
    fn last_matching_rule_wins() {
        let plan = FaultPlan::new(5)
            .with_rule(FaultRule {
                drop: 1.0,
                ..FaultRule::default()
            })
            .with_rule(FaultRule {
                class: Some(0),
                drop: 0.0,
                ..FaultRule::default()
            });
        assert!(matches!(
            plan.decide(0, Time::ZERO, 0, 1, 0),
            FaultAction::Deliver { .. }
        ));
        assert_eq!(plan.decide(0, Time::ZERO, 0, 1, 1), FaultAction::Drop);
    }

    #[test]
    fn degradation_window_scales_probability() {
        let plan = FaultPlan::new(11)
            .with_rule(FaultRule {
                drop: 0.01,
                ..FaultRule::default()
            })
            .with_window(DegradeWindow {
                start: Time::from_ns(1000),
                end: Time::from_ns(2000),
                factor: 100.0,
            });
        let drops_at = |t: Time| -> usize {
            (0..500)
                .filter(|&s| matches!(plan.decide(s, t, 0, 1, 0), FaultAction::Drop))
                .count()
        };
        let outside = drops_at(Time::from_ns(100));
        let inside = drops_at(Time::from_ns(1500));
        assert!(outside < 30, "baseline ~1%: {outside}");
        assert_eq!(inside, 500, "p=1.0 inside the window");
    }

    #[test]
    fn jitter_delays_and_reorders() {
        let plan = FaultPlan::new(13).with_rule(FaultRule {
            jitter: Time::from_ns(500),
            ..FaultRule::default()
        });
        let mut extras = Vec::new();
        for seq in 0..64 {
            match plan.decide(seq, Time::ZERO, 0, 1, 0) {
                FaultAction::Deliver { extra } => extras.push(extra),
                other => panic!("jitter-only rule must deliver, got {other:?}"),
            }
        }
        assert!(
            extras.iter().any(|&e| e > Time::ZERO),
            "some jitter applied"
        );
        assert!(extras.iter().all(|&e| e <= Time::from_ns(500)));
        // Arrival order (send spacing 10 ns) differs from send order.
        let arrivals: Vec<Time> = extras
            .iter()
            .enumerate()
            .map(|(i, &e)| Time::from_ns(10 * i as u64) + e)
            .collect();
        assert!(
            arrivals.windows(2).any(|w| w[0] > w[1]),
            "500 ns jitter over 10 ns spacing must reorder"
        );
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; drop=0.01; dup=0.02; jitter=200; drop.Notify=0.5; \
             delay.Data.0-1=50; window=1000..2000x10",
            resolver,
        )
        .expect("valid spec");
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.windows.len(), 1);
        // Generic rule first, specific scopes after.
        assert_eq!(plan.rules[0].class, None);
        assert_eq!(plan.rules[0].drop, 0.01);
        assert_eq!(plan.rules[0].dup, 0.02);
        assert_eq!(plan.rules[0].jitter, Time::from_ns(200));
        let notify = plan.rules.iter().find(|r| r.class == Some(3)).unwrap();
        assert_eq!(notify.drop, 0.5);
        let pair = plan.rules.iter().find(|r| r.src_host == Some(0)).unwrap();
        assert_eq!(pair.class, Some(0));
        assert_eq!(pair.dst_host, Some(1));
        assert_eq!(pair.delay, Time::from_ns(50));
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop",
            "drop=1.5",
            "drop.NoSuchClass=0.1",
            "frobnicate=1",
            "window=5x2",
            "drop.Data.0=0.1",
            "drop.Data.0-1.9=0.1",
            // Windows that end before they start, and factors that are not
            // finite, non-negative numbers.
            "window=2000..1000x2",
            "window=0..1000x-1",
            "window=0..1000xNaN",
            "window=0..1000xinf",
        ] {
            assert!(FaultPlan::parse(bad, resolver).is_err(), "{bad:?} accepted");
        }
        // Times beyond `Time::SPEC_MAX`, up to values whose picosecond value
        // overflows u64, are errors; the limit itself parses.
        let max = Time::SPEC_MAX.as_ns();
        for ns in [max + 1, u64::MAX / 1_000 + 1, u64::MAX] {
            for bad in [
                format!("delay={ns}"),
                format!("jitter.Data={ns}"),
                format!("window=0..{ns}x2"),
                format!("window={ns}..{ns}x2"),
                format!("crash.dir.0={ns}"),
                format!("crash.xport.*={ns}"),
            ] {
                assert!(
                    FaultPlan::parse(&bad, resolver).is_err(),
                    "{bad:?} accepted"
                );
            }
        }
        assert!(FaultPlan::parse("crash.xport.*=99999999999999999999", resolver).is_err());
        for good in [
            format!("delay={max}; jitter={max}"),
            format!("window=0..{max}x2"),
            format!("crash.dir.0={max}"),
            "window=1000..1000x0".to_string(),
        ] {
            assert!(
                FaultPlan::parse(&good, resolver).is_ok(),
                "{good:?} rejected"
            );
        }
    }

    #[test]
    fn parse_crash_directives() {
        let plan = FaultPlan::parse(
            "seed=4; crash.dir.1=5000; crash.xport.*=9000; crash.dir=0.5; window=1000..2000x1",
            resolver,
        )
        .expect("valid crash spec");
        assert!(plan.has_crashes());
        assert!(!plan.is_noop());
        let evs = plan.crash_events(2);
        // Explicit directives: dir reset on host 1 at 5 µs, xport reset on
        // both hosts at 9 µs.
        assert!(evs.contains(&CrashEvent {
            at: Time::from_ns(5000),
            kind: CrashKind::DirReset,
            host: 1,
        }));
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == CrashKind::XportReset && e.at == Time::from_ns(9000))
                .count(),
            2
        );
        // Sorted by time.
        assert!(evs.windows(2).all(|w| w[0].at <= w[1].at));
        // Hashed expansion lands inside its window.
        for e in evs
            .iter()
            .filter(|e| e.kind == CrashKind::DirReset && e.at != Time::from_ns(5000))
        {
            assert!(e.at >= Time::from_ns(1000) && e.at < Time::from_ns(2000));
        }
        for bad in [
            "crash.dir",
            "crash=0.5",
            "crash.cpu.0=100",
            "crash.dir.x=100",
            "crash.dir.0.1=100",
            "crash.xport=1.5",
        ] {
            assert!(FaultPlan::parse(bad, resolver).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn crash_schedule_is_pure() {
        let mk = || {
            FaultPlan::parse(
                "seed=7; crash.dir=0.6; crash.xport=0.3; window=0..10000x2",
                |_| None,
            )
            .unwrap()
        };
        assert_eq!(mk().crash_events(8), mk().crash_events(8));
        assert_eq!(mk().crash_events(8), mk().clone().crash_events(8));
        // Different seeds give a different schedule.
        let other = FaultPlan::parse(
            "seed=8; crash.dir=0.6; crash.xport=0.3; window=0..10000x2",
            |_| None,
        )
        .unwrap();
        assert_ne!(mk().crash_events(64), other.crash_events(64));
        // Rate form without windows expands to nothing.
        let bare = FaultPlan::parse("crash.dir=0.9", |_| None).unwrap();
        assert!(bare.has_crashes());
        assert!(bare.crash_events(8).is_empty());
    }

    #[test]
    fn parse_wildcard_scopes() {
        let plan = FaultPlan::parse("drop.*.*-2=0.9;dup.*=0.1", resolver).expect("wildcards valid");
        assert_eq!(plan.rules.len(), 2);
        assert_eq!(plan.rules[0].class, None, "generic dup rule first");
        assert_eq!(plan.rules[1].dst_host, Some(2));
        assert_eq!(plan.rules[1].src_host, None);
    }
}
