//! Fuzz scenarios and the portable text repro format.
//!
//! A [`Scenario`] is a complete, self-contained description of one
//! simulator run: topology, engine, table provisioning, an optional fault
//! spec, and a workload drawn from a *deadlock-free-by-construction* shape
//! family — producer/consumer pairs where every round writes fresh data
//! slots and publishes them with a Release store to a fresh flag the
//! consumer Acquire-polls. Because every address is written exactly once
//! and every round is self-contained, any subset of pairs, rounds, or data
//! stores is again a valid scenario: that is what makes delta-debugging
//! shrinking (see [`crate::shrink`]) sound.
//!
//! Scenarios serialize to a line-oriented text format (`cord-fuzz repro
//! v1`) with no external dependencies, so a failing case can be committed
//! to `tests/repros/`, replayed with `fuzz --replay`, and diffed by eye.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use cord_mem::Addr;
use cord_noc::{Fabric, NocConfig};
use cord_proto::{FaultSpec, LoadOrd, Program, ProtocolKind, StoreOrd, SystemConfig, TableSizes};

/// Byte stride between generated addresses: one slice-0 line per slot, so
/// every slot of a host is homed on that host's tile 0 (the model checker
/// and the MP/SEQ single-destination constraint both rely on this).
const SLOT_STRIDE: u64 = 512;
/// Offset of the flag region within a host's memory (disjoint from data).
const FLAG_REGION: u64 = 1 << 20;

/// One memory slot: a unique (host, index) pair mapping to a unique address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Slot {
    /// Host whose memory holds the slot.
    pub host: u32,
    /// Scenario-wide slot index (data and flag index spaces are disjoint).
    pub idx: u32,
}

impl Slot {
    /// The slot's address when used as a data slot.
    pub fn data_addr(self, cfg: &SystemConfig) -> Addr {
        cfg.map
            .addr_on_host(self.host, u64::from(self.idx) * SLOT_STRIDE)
    }

    /// The slot's address when used as a flag slot.
    pub fn flag_addr(self, cfg: &SystemConfig) -> Addr {
        cfg.map
            .addr_on_host(self.host, FLAG_REGION + u64::from(self.idx) * SLOT_STRIDE)
    }

    /// The (unique, non-zero) value the producer writes into a data slot.
    pub fn data_value(self) -> u64 {
        u64::from(self.idx) + 1
    }
}

/// One relaxed (or Release) data store within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataStore {
    /// Destination slot.
    pub slot: Slot,
    /// Whether the store itself carries Release ordering.
    pub release: bool,
}

/// One publication round: data stores followed by a Release flag store the
/// consumer waits on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Flag slot, always homed on the consumer's host (local acquire-poll)
    /// and always written with value 1.
    pub flag: Slot,
    /// Data stores published by this round's flag.
    pub data: Vec<DataStore>,
}

/// One producer/consumer pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pair {
    /// Producer tile (flat host-major index).
    pub producer: u32,
    /// Consumer tile (flat host-major index).
    pub consumer: u32,
    /// Publication rounds, executed in order.
    pub rounds: Vec<Round>,
}

/// A complete fuzz scenario: system configuration plus workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Protocol engine under test.
    pub engine: ProtocolKind,
    /// Fabric flavor: `true` = UPI, `false` = CXL.
    pub upi: bool,
    /// Multi-tier switch-fabric shape ([`Fabric`] grammar); `None` = the
    /// flat single switch.
    pub fabric: Option<Fabric>,
    /// CPU host count.
    pub hosts: u32,
    /// Tiles per host.
    pub tph: u32,
    /// Protocol table provisioning (down to capacity 1).
    pub tables: TableSizes,
    /// DES event cap for the run.
    pub max_events: u64,
    /// Optional fault spec (the `CORD_FAULTS` grammar, see EXPERIMENTS.md).
    pub faults: Option<String>,
    /// Producer/consumer pairs.
    pub pairs: Vec<Pair>,
}

impl Scenario {
    /// The [`SystemConfig`] this scenario runs under.
    pub fn config(&self) -> SystemConfig {
        let mut noc = if self.upi {
            NocConfig::upi(self.hosts, self.tph)
        } else {
            NocConfig::cxl(self.hosts, self.tph)
        };
        if let Some(f) = self.fabric {
            noc = noc.with_fabric(f);
        }
        let mut cfg = SystemConfig::with_noc(self.engine, noc);
        cfg.tables = self.tables;
        cfg
    }

    /// One program per tile of `cfg` (which must be [`Scenario::config`]).
    ///
    /// Consumer loads land in registers `0..4` (round-robin), matching the
    /// abstract checker's 4-register threads so the differential oracle can
    /// compare register files directly.
    pub fn programs(&self, cfg: &SystemConfig) -> Vec<Program> {
        let mut programs = vec![Program::new(); cfg.total_tiles() as usize];
        for pair in &self.pairs {
            let mut p = Program::build();
            let mut c = Program::build();
            let mut reg = 0u64;
            for round in &pair.rounds {
                for d in &round.data {
                    let ord = if d.release {
                        StoreOrd::Release
                    } else {
                        StoreOrd::Relaxed
                    };
                    p = p.store(d.slot.data_addr(cfg), 8, d.slot.data_value(), ord);
                }
                p = p.store(round.flag.flag_addr(cfg), 8, 1, StoreOrd::Release);
                c = c.wait_value(round.flag.flag_addr(cfg), 1);
                for d in &round.data {
                    c = c.load(d.slot.data_addr(cfg), 8, LoadOrd::Relaxed, (reg % 4) as u8);
                    reg += 1;
                }
            }
            programs[pair.producer as usize] = p.finish();
            programs[pair.consumer as usize] = c.finish();
        }
        programs
    }

    /// Total operation count across all programs (used to bound the
    /// differential model check).
    pub fn op_count(&self) -> usize {
        self.pairs
            .iter()
            .flat_map(|p| &p.rounds)
            .map(|r| 2 * r.data.len() + 2)
            .sum()
    }

    /// Checks the structural invariants the oracles rely on. Returns a
    /// human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if matches!(self.engine, ProtocolKind::Hybrid { .. }) {
            return Err("the fuzzer does not target HYBRID".into());
        }
        if self.hosts < 2 || self.hosts > 64 {
            return Err(format!("hosts {} outside 2..=64", self.hosts));
        }
        if self.tph < 1 || self.tph > 16 {
            return Err(format!("tph {} outside 1..=16", self.tph));
        }
        if let Some(f) = &self.fabric {
            f.check(self.hosts)
                .map_err(|e| format!("bad fabric: {e}"))?;
        }
        let t = &self.tables;
        if t.proc_cnt < 1
            || t.proc_unacked < 1
            || t.dir_cnt_per_proc < 1
            || t.dir_noti_per_proc < 1
            || t.dir_pending_buf < 1
        {
            return Err("every table capacity must be ≥ 1".into());
        }
        if self.max_events == 0 {
            return Err("max_events must be ≥ 1".into());
        }
        if let Some(spec) = &self.faults {
            FaultSpec::parse(spec).map_err(|e| format!("bad fault spec {spec:?}: {e}"))?;
        }
        let tiles = self.hosts * self.tph;
        let mut used = BTreeSet::new();
        let mut data_slots = BTreeSet::new();
        let mut flag_slots = BTreeSet::new();
        for (i, pair) in self.pairs.iter().enumerate() {
            for tile in [pair.producer, pair.consumer] {
                if tile >= tiles {
                    return Err(format!("pair {i}: tile {tile} ≥ {tiles}"));
                }
                if !used.insert(tile) {
                    return Err(format!("pair {i}: tile {tile} used twice"));
                }
            }
            if pair.rounds.is_empty() {
                return Err(format!("pair {i} has no rounds"));
            }
            let chost = pair.consumer / self.tph;
            for round in &pair.rounds {
                if round.flag.host != chost {
                    return Err(format!(
                        "pair {i}: flag on host {} but consumer on host {chost} \
                         (flags must be local to the consumer)",
                        round.flag.host
                    ));
                }
                if !flag_slots.insert((round.flag.host, round.flag.idx)) {
                    return Err(format!("flag slot {:?} used twice", round.flag));
                }
                for d in &round.data {
                    if d.slot.host >= self.hosts {
                        return Err(format!("data slot host {} ≥ {}", d.slot.host, self.hosts));
                    }
                    if !self.engine.global_rc() && d.slot.host != chost {
                        return Err(format!(
                            "engine {} lacks cross-directory release ordering: data \
                             must stay on the consumer's host {chost}, not {}",
                            self.engine.label(),
                            d.slot.host
                        ));
                    }
                    if !data_slots.insert((d.slot.host, d.slot.idx)) {
                        return Err(format!("data slot {:?} used twice", d.slot));
                    }
                }
            }
        }
        let max_idx = u64::from(
            self.pairs
                .iter()
                .flat_map(|p| &p.rounds)
                .flat_map(|r| r.data.iter().map(|d| d.slot.idx).chain([r.flag.idx]))
                .max()
                .unwrap_or(0),
        );
        if max_idx * SLOT_STRIDE >= FLAG_REGION {
            return Err(format!("slot index {max_idx} overflows the data region"));
        }
        Ok(())
    }

    /// Serializes the scenario (plus an optional `expect <verdict-class>`
    /// line) into the `cord-fuzz repro v1` text format. The output is
    /// canonical: [`parse`] of the result round-trips to an equal scenario,
    /// and equal scenarios serialize to identical bytes.
    pub fn serialize(&self, expect: Option<&str>) -> String {
        let mut out = String::from("cord-fuzz repro v1\n");
        let _ = writeln!(out, "engine {}", self.engine.label());
        let _ = writeln!(out, "topo {}", if self.upi { "upi" } else { "cxl" });
        if let Some(f) = &self.fabric {
            let _ = writeln!(out, "fabric {f}");
        }
        let _ = writeln!(out, "hosts {}", self.hosts);
        let _ = writeln!(out, "tph {}", self.tph);
        let t = &self.tables;
        let _ = writeln!(
            out,
            "tables {} {} {} {} {}",
            t.proc_cnt, t.proc_unacked, t.dir_cnt_per_proc, t.dir_noti_per_proc, t.dir_pending_buf
        );
        let _ = writeln!(out, "max_events {}", self.max_events);
        if let Some(f) = &self.faults {
            let _ = writeln!(out, "faults {f}");
        }
        if let Some(e) = expect {
            let _ = writeln!(out, "expect {e}");
        }
        for pair in &self.pairs {
            let _ = writeln!(out, "pair {} {}", pair.producer, pair.consumer);
            for round in &pair.rounds {
                let _ = write!(out, "round {}:{}", round.flag.host, round.flag.idx);
                for d in &round.data {
                    let r = if d.release { "r" } else { "" };
                    let _ = write!(out, " {}:{}{r}", d.slot.host, d.slot.idx);
                }
                out.push('\n');
            }
        }
        out
    }
}

/// A parsed repro file: the scenario plus its optional expected verdict
/// class (`expect pass|hang|event-cap|panic|rc-violation|model-divergence`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Repro {
    /// The scenario to replay.
    pub scenario: Scenario,
    /// Expected verdict class, if the file declares one.
    pub expect: Option<String>,
}

fn parse_engine(s: &str) -> Result<ProtocolKind, String> {
    match s {
        "CORD" => Ok(ProtocolKind::Cord),
        "SO" => Ok(ProtocolKind::So),
        "MP" => Ok(ProtocolKind::Mp),
        "WB" => Ok(ProtocolKind::Wb),
        _ => match s.strip_prefix("SEQ-") {
            Some(bits) => {
                let bits: u8 = bits.parse().map_err(|_| format!("bad engine {s:?}"))?;
                Ok(ProtocolKind::Seq { bits })
            }
            None => Err(format!("unknown engine {s:?}")),
        },
    }
}

/// One `host:idx[r]` slot token; returns `(slot, release)`.
fn parse_slot(tok: &str) -> Result<(Slot, bool), String> {
    let (body, release) = match tok.strip_suffix('r') {
        Some(b) => (b, true),
        None => (tok, false),
    };
    let (h, i) = body
        .split_once(':')
        .ok_or_else(|| format!("bad slot token {tok:?} (want host:idx)"))?;
    let host = h.parse().map_err(|_| format!("bad host in {tok:?}"))?;
    let idx = i.parse().map_err(|_| format!("bad index in {tok:?}"))?;
    Ok((Slot { host, idx }, release))
}

/// Parses the `cord-fuzz repro v1` text format. `#` starts a comment; the
/// parsed scenario is [validated](Scenario::validate) before being returned.
pub fn parse(text: &str) -> Result<Repro, String> {
    let mut lines = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty());
    match lines.next() {
        Some("cord-fuzz repro v1") => {}
        other => {
            return Err(format!(
                "bad header {other:?} (want \"cord-fuzz repro v1\")"
            ))
        }
    }
    let mut sc = Scenario {
        engine: ProtocolKind::Cord,
        upi: false,
        fabric: None,
        hosts: 0,
        tph: 0,
        tables: TableSizes::default(),
        max_events: 2_000_000,
        faults: None,
        pairs: Vec::new(),
    };
    let mut expect = None;
    for line in lines {
        let (key, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match key {
            "engine" => sc.engine = parse_engine(rest)?,
            "topo" => {
                sc.upi = match rest {
                    "upi" => true,
                    "cxl" => false,
                    _ => return Err(format!("bad topo {rest:?} (want cxl|upi)")),
                }
            }
            "fabric" => sc.fabric = Some(Fabric::parse(rest)?),
            "hosts" => sc.hosts = rest.parse().map_err(|_| format!("bad hosts {rest:?}"))?,
            "tph" => sc.tph = rest.parse().map_err(|_| format!("bad tph {rest:?}"))?,
            "tables" => {
                let v: Vec<usize> = rest
                    .split_whitespace()
                    .map(|t| t.parse().map_err(|_| format!("bad tables entry {t:?}")))
                    .collect::<Result<_, _>>()?;
                let [a, b, c, d, e] = v[..] else {
                    return Err(format!("tables wants 5 capacities, got {}", v.len()));
                };
                sc.tables = TableSizes {
                    proc_cnt: a,
                    proc_unacked: b,
                    dir_cnt_per_proc: c,
                    dir_noti_per_proc: d,
                    dir_pending_buf: e,
                };
            }
            "max_events" => {
                sc.max_events = rest
                    .parse()
                    .map_err(|_| format!("bad max_events {rest:?}"))?
            }
            "faults" => sc.faults = Some(rest.to_string()),
            "expect" => expect = Some(rest.to_string()),
            "pair" => {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                let [p, c] = toks[..] else {
                    return Err(format!("pair wants 2 tiles, got {rest:?}"));
                };
                sc.pairs.push(Pair {
                    producer: p.parse().map_err(|_| format!("bad producer {p:?}"))?,
                    consumer: c.parse().map_err(|_| format!("bad consumer {c:?}"))?,
                    rounds: Vec::new(),
                });
            }
            "round" => {
                let pair = sc
                    .pairs
                    .last_mut()
                    .ok_or("round before any pair directive")?;
                let mut toks = rest.split_whitespace();
                let flag_tok = toks.next().ok_or("round wants at least a flag slot")?;
                let (flag, frel) = parse_slot(flag_tok)?;
                if frel {
                    return Err(format!("flag slot {flag_tok:?} cannot carry 'r'"));
                }
                let data = toks
                    .map(|t| parse_slot(t).map(|(slot, release)| DataStore { slot, release }))
                    .collect::<Result<_, _>>()?;
                pair.rounds.push(Round { flag, data });
            }
            _ => return Err(format!("unknown directive {key:?}")),
        }
    }
    sc.validate()?;
    Ok(Repro {
        scenario: sc,
        expect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_pair() -> Scenario {
        Scenario {
            engine: ProtocolKind::Cord,
            upi: false,
            fabric: Some(Fabric::parse("pods 2 200 600").unwrap()),
            hosts: 4,
            tph: 2,
            tables: TableSizes::default(),
            max_events: 2_000_000,
            faults: Some("seed=7; drop=0.05; jitter=100".into()),
            pairs: vec![
                Pair {
                    producer: 0,
                    consumer: 6,
                    rounds: vec![Round {
                        flag: Slot { host: 3, idx: 0 },
                        data: vec![
                            DataStore {
                                slot: Slot { host: 1, idx: 0 },
                                release: false,
                            },
                            DataStore {
                                slot: Slot { host: 2, idx: 1 },
                                release: true,
                            },
                        ],
                    }],
                },
                Pair {
                    producer: 1,
                    consumer: 3,
                    rounds: vec![Round {
                        flag: Slot { host: 1, idx: 1 },
                        data: vec![DataStore {
                            slot: Slot { host: 1, idx: 2 },
                            release: false,
                        }],
                    }],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let sc = two_pair();
        sc.validate().unwrap();
        let text = sc.serialize(Some("pass"));
        let repro = parse(&text).unwrap();
        assert_eq!(repro.scenario, sc);
        assert_eq!(repro.expect.as_deref(), Some("pass"));
        // Canonical: serialize(parse(x)) == x.
        assert_eq!(repro.scenario.serialize(Some("pass")), text);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "# a failing case\n\n{}# trailing\n",
            two_pair().serialize(None)
        );
        assert_eq!(parse(&text).unwrap().scenario, two_pair());
    }

    #[test]
    fn programs_match_scenario_shape() {
        let sc = two_pair();
        let cfg = sc.config();
        let ps = sc.programs(&cfg);
        assert_eq!(ps.len(), 8);
        assert_eq!(ps[0].len(), 3); // 2 data + 1 flag
        assert_eq!(ps[0].release_count(), 2); // flag + the release data store
        assert_eq!(ps[6].len(), 3); // wait + 2 loads
        assert_eq!(ps[1].len(), 2);
        assert_eq!(ps[3].len(), 2);
        assert!(ps[2].is_empty() && ps[4].is_empty());
        assert_eq!(sc.op_count(), 10);
    }

    #[test]
    fn validate_rejects_broken_scenarios() {
        let mut dup_tile = two_pair();
        dup_tile.pairs[1].producer = 0;
        assert!(dup_tile.validate().unwrap_err().contains("used twice"));

        let mut dup_slot = two_pair();
        dup_slot.pairs[1].rounds[0].data[0].slot = Slot { host: 1, idx: 0 };
        assert!(dup_slot.validate().unwrap_err().contains("used twice"));

        let mut remote_flag = two_pair();
        remote_flag.pairs[0].rounds[0].flag.host = 2;
        assert!(remote_flag.validate().unwrap_err().contains("local"));

        let mut mp_multi = two_pair();
        mp_multi.engine = ProtocolKind::Mp;
        assert!(mp_multi.validate().unwrap_err().contains("cross-directory"));

        let mut bad_spec = two_pair();
        bad_spec.faults = Some("drop=nope".into());
        assert!(bad_spec.validate().unwrap_err().contains("fault spec"));

        let mut bad_fabric = two_pair();
        bad_fabric.fabric = Some(Fabric::parse("pods 3 200 600").unwrap());
        assert!(bad_fabric.validate().unwrap_err().contains("bad fabric"));
    }

    #[test]
    fn fabric_directive_round_trips_every_shape() {
        for shape in [
            "pods 2 200 600",
            "fattree 2 2 40 120 400",
            "dragonfly 2 50 400",
        ] {
            let mut sc = two_pair();
            sc.fabric = Some(Fabric::parse(shape).unwrap());
            sc.validate().unwrap();
            let text = sc.serialize(None);
            assert!(text.contains(&format!("fabric {shape}\n")), "{text}");
            assert_eq!(parse(&text).unwrap().scenario, sc);
        }
        // Absent directive = flat fabric.
        let mut flat = two_pair();
        flat.fabric = None;
        let text = flat.serialize(None);
        assert!(!text.contains("fabric "), "{text}");
        assert_eq!(parse(&text).unwrap().scenario.fabric, None);
    }

    #[test]
    fn parse_reports_bad_input() {
        assert!(parse("nope").unwrap_err().contains("header"));
        let mut sc = two_pair().serialize(None);
        sc.push_str("bogus 1\n");
        assert!(parse(&sc).unwrap_err().contains("unknown directive"));
        let orphan = "cord-fuzz repro v1\nengine CORD\nhosts 2\ntph 2\nround 1:0\n";
        assert!(parse(orphan).unwrap_err().contains("before any pair"));
        // Out-of-range fabric numbers are errors, not truncations or panics.
        for fabric in [
            "fabric pods 4294967298 200 600\n",
            "fabric dragonfly 2 200 18446744073709552\n",
        ] {
            let text = format!("{}{fabric}", two_pair().serialize(None));
            assert!(parse(&text).unwrap_err().contains("fabric"), "{fabric}");
        }
    }
}
