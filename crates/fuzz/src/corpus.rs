//! The coverage-ranked fuzz corpus.
//!
//! A [`Corpus`] is an ordered set of scenarios, each tagged with the
//! [`CoverageMap`] its oracle runs produced. Admission is novelty-gated:
//! a scenario enters only if it covers at least one edge the corpus union
//! has not seen, and its admission-time novelty becomes its scheduling
//! *energy* — [`Corpus::schedule`] picks mutation parents with probability
//! proportional to energy, so scenarios that opened new behavior get
//! fuzzed hardest (the classic AFL-style feedback loop, but over
//! deterministic protocol-trace edges instead of branch counters).
//!
//! Entries whose replay verdict is not `pass` still widen the union (a
//! committed hang repro is often the only thing exercising the watchdog
//! edges) but carry zero energy: mutating a known counterexample mostly
//! reproduces it, which wastes guided iterations.
//!
//! [`Corpus::minimize`] computes a greedy set cover — the classic
//! ln(n)-approximate minimal subset of entries whose merged coverage
//! equals the full union — used by the daemon to keep the on-disk corpus
//! from accumulating subsumed entries.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use cord_sim::coverage::CoverageMap;
use cord_sim::DetRng;

use crate::scenario::{parse, Repro, Scenario};

/// One admitted scenario with its coverage pedigree.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Stable admission id (also the on-disk file stem, `c<id>.repro`).
    pub id: u64,
    /// The scenario itself.
    pub scenario: Scenario,
    /// Verdict class the oracles returned when this entry was admitted.
    pub class: String,
    /// Coverage of the entry's own oracle runs (baseline + faulted).
    pub coverage: CoverageMap,
    /// Scheduling weight: edges this entry added on admission (0 for
    /// non-`pass` entries, which are never mutation parents).
    pub energy: u64,
}

/// An in-memory corpus: entries in admission order plus their union map.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// Admitted entries, in admission order.
    pub entries: Vec<CorpusEntry>,
    /// Union of every entry's coverage.
    pub union: CoverageMap,
    next_id: u64,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Admits `scenario` if its coverage adds at least one edge to the
    /// union. Returns the new entry on admission, `None` when the scenario
    /// is subsumed.
    pub fn admit(
        &mut self,
        scenario: Scenario,
        class: &str,
        coverage: CoverageMap,
    ) -> Option<&CorpusEntry> {
        let novel = coverage.novel_vs(&self.union) as u64;
        if novel == 0 {
            return None;
        }
        self.union.merge(&coverage);
        let entry = CorpusEntry {
            id: self.next_id,
            scenario,
            class: class.to_string(),
            coverage,
            energy: if class == "pass" { novel } else { 0 },
        };
        self.next_id += 1;
        self.entries.push(entry);
        self.entries.last()
    }

    /// Total scheduling energy (pass entries only).
    pub fn total_energy(&self) -> u64 {
        self.entries.iter().map(|e| e.energy).sum()
    }

    /// Energy-weighted parent pick. Deterministic given the rng state;
    /// `None` when no entry is schedulable (empty corpus, or only
    /// counterexample entries).
    pub fn schedule(&self, rng: &mut DetRng) -> Option<&CorpusEntry> {
        let total = self.total_energy();
        if total == 0 {
            return None;
        }
        let mut x = rng.range_u64(0..total);
        for e in &self.entries {
            if x < e.energy {
                return Some(e);
            }
            x -= e.energy;
        }
        unreachable!("energy draw exceeded total")
    }

    /// Greedy set-cover minimization: ids of a small subset of entries
    /// whose merged coverage equals the full union (highest marginal gain
    /// first, ties to the oldest entry). Returned sorted by id.
    pub fn minimize(&self) -> Vec<u64> {
        let mut covered = CoverageMap::new();
        let mut picked = Vec::new();
        let mut remaining: Vec<&CorpusEntry> = self.entries.iter().collect();
        while covered.distinct() < self.union.distinct() {
            let Some((novel, _, i)) = remaining
                .iter()
                .enumerate()
                .map(|(i, e)| (e.coverage.novel_vs(&covered), std::cmp::Reverse(e.id), i))
                .max()
            else {
                break;
            };
            if novel == 0 {
                break; // cannot happen while covered < union, but stay total
            }
            let e = remaining.remove(i);
            covered.merge(&e.coverage);
            picked.push(e.id);
        }
        picked.sort_unstable();
        picked
    }

    /// Drops every entry not in `keep` (ids as returned by
    /// [`Corpus::minimize`]). The union map is left untouched: minimization
    /// preserves it by construction.
    pub fn retain_ids(&mut self, keep: &[u64]) {
        self.entries.retain(|e| keep.binary_search(&e.id).is_ok());
    }

    /// The on-disk file name of an entry.
    pub fn file_name(entry: &CorpusEntry) -> String {
        format!("c{:05}.repro", entry.id)
    }

    /// Writes `entry` into `dir` (created if missing) as a repro file with
    /// its verdict class on the `expect` line.
    pub fn write_entry(dir: &Path, entry: &CorpusEntry) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(entry));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(entry.scenario.serialize(Some(&entry.class)).as_bytes())?;
        Ok(path)
    }

    /// Rewrites `dir` to exactly the current entry set, removing stale
    /// `c*.repro` files (e.g. after [`Corpus::retain_ids`]).
    pub fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let keep: Vec<String> = self.entries.iter().map(Self::file_name).collect();
        for f in std::fs::read_dir(dir)? {
            let path = f?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.starts_with('c') && name.ends_with(".repro") && !keep.iter().any(|k| k == name)
            {
                std::fs::remove_file(&path)?;
            }
        }
        for e in &self.entries {
            Self::write_entry(dir, e)?;
        }
        Ok(())
    }
}

/// Loads every `*.repro` file under `dir` in file-name order (the
/// deterministic seed order for guided campaigns). Unparsable files are
/// returned as `(file name, error)` warnings rather than failing the load,
/// so one corrupt corpus file cannot wedge the daemon.
#[allow(clippy::type_complexity)]
pub fn load_dir(dir: &Path) -> std::io::Result<(Vec<(String, Repro)>, Vec<(String, String)>)> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "repro"))
        .collect();
    files.sort();
    let mut repros = Vec::new();
    let mut warnings = Vec::new();
    for path in files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("?")
            .to_string();
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse(&t))
        {
            Ok(r) => repros.push((name, r)),
            Err(e) => warnings.push((name, e)),
        }
    }
    Ok((repros, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::oracle::run_scenario_cov;

    fn cov_of(seed: u64, index: u64) -> (Scenario, String, CoverageMap) {
        let s = generate(seed, index, 2_000_000);
        let (rep, cov) = run_scenario_cov(&s, false);
        (s, rep.verdict.class().to_string(), cov)
    }

    #[test]
    fn admission_is_novelty_gated_and_union_grows() {
        let mut corpus = Corpus::new();
        let (s, class, cov) = cov_of(2026, 0);
        let d = cov.distinct();
        assert!(d > 0, "a real run must produce coverage");
        assert!(corpus.admit(s.clone(), &class, cov.clone()).is_some());
        assert_eq!(corpus.union.distinct(), d);
        // The identical scenario is fully subsumed.
        assert!(corpus.admit(s, &class, cov).is_none());
        assert_eq!(corpus.entries.len(), 1);
    }

    #[test]
    fn scheduling_is_energy_weighted_and_skips_failures() {
        let mut corpus = Corpus::new();
        for i in 0..6 {
            let (s, class, cov) = cov_of(2026, i);
            corpus.admit(s, &class, cov);
        }
        assert!(!corpus.entries.is_empty());
        // Forcibly mark entry 0 a counterexample: it must never be picked.
        corpus.entries[0].energy = 0;
        corpus.entries[0].class = "hang".into();
        if corpus.total_energy() == 0 {
            assert!(corpus.schedule(&mut DetRng::new(1)).is_none());
            return;
        }
        let mut rng = DetRng::new(7);
        for _ in 0..200 {
            let e = corpus.schedule(&mut rng).expect("energy > 0");
            assert!(e.energy > 0, "zero-energy entry scheduled");
        }
        // Deterministic: same rng seed, same picks.
        let picks = |seed: u64| {
            let mut rng = DetRng::new(seed);
            (0..32)
                .map(|_| corpus.schedule(&mut rng).unwrap().id)
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(5), picks(5));
    }

    #[test]
    fn minimize_preserves_the_union() {
        let mut corpus = Corpus::new();
        for i in 0..10 {
            let (s, class, cov) = cov_of(2026, i);
            corpus.admit(s, &class, cov);
        }
        let keep = corpus.minimize();
        assert!(!keep.is_empty() && keep.len() <= corpus.entries.len());
        let mut union = CoverageMap::new();
        for e in corpus.entries.iter().filter(|e| keep.contains(&e.id)) {
            union.merge(&e.coverage);
        }
        // The edge *set* is preserved (counts may shrink: fewer entries
        // contribute hits).
        assert_eq!(union.distinct(), corpus.union.distinct());
        assert_eq!(union.novel_vs(&corpus.union), 0);
        assert_eq!(corpus.union.novel_vs(&union), 0);
        // retain_ids keeps exactly the cover.
        let mut pruned = corpus.clone();
        pruned.retain_ids(&keep);
        assert_eq!(pruned.entries.len(), keep.len());
    }

    #[test]
    fn disk_roundtrip_preserves_entries() {
        let dir = std::env::temp_dir().join(format!("cord-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut corpus = Corpus::new();
        for i in 0..4 {
            let (s, class, cov) = cov_of(2026, i);
            corpus.admit(s, &class, cov);
        }
        corpus.sync_dir(&dir).unwrap();
        let (repros, warnings) = load_dir(&dir).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(repros.len(), corpus.entries.len());
        for ((name, r), e) in repros.iter().zip(&corpus.entries) {
            assert_eq!(*name, Corpus::file_name(e));
            assert_eq!(r.scenario, e.scenario);
            assert_eq!(r.expect.as_deref(), Some(e.class.as_str()));
        }
        // Pruning then syncing removes stale files.
        let keep = vec![corpus.entries[0].id];
        corpus.retain_ids(&keep);
        corpus.sync_dir(&dir).unwrap();
        let (repros, _) = load_dir(&dir).unwrap();
        assert_eq!(repros.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
