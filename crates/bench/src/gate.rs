//! The exact record check shared by the gated bins (`scale`, `litmus` and
//! `fuzz`).
//!
//! A gated bin renders its deterministic counts (simulated events, checker
//! states, coverage edges, simulated time) as one text line per cell,
//! `<cell> <field>=<value> …`, where the cell name holds no space. The lines
//! are sorted and committed as `results/records/<record>.txt`, one file per
//! (bin, mode). [`enforce`] compares a run against its record: any
//! difference fails the run and names the first differing cell. Only
//! `CORD_UPDATE_GOLDEN=1` rewrites a record, so every count change is a
//! re-record with a stated reason. Counts are host-independent, so the
//! check holds on any host; wall time is measured by the benchmark package
//! alone.

use std::collections::BTreeMap;

/// The committed record file of `record`.
pub fn path(record: &str) -> String {
    format!("results/records/{record}.txt")
}

/// Whether `CORD_UPDATE_GOLDEN` asks this run to re-record.
pub fn updating() -> bool {
    std::env::var_os("CORD_UPDATE_GOLDEN").is_some()
}

/// Compares `current` record text with `recorded`, cell by cell in sorted
/// cell order. `Err` names the first cell whose line changed, is missing
/// from `current` or is new in it.
pub fn diff(recorded: &str, current: &str) -> Result<(), String> {
    let cells = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter(|l| !l.is_empty())
            .map(|l| (l.split(' ').next().unwrap_or(l).to_string(), l.to_string()))
            .collect()
    };
    let (old, new) = (cells(recorded), cells(current));
    let mut keys: Vec<&String> = old.keys().chain(new.keys()).collect();
    keys.sort();
    keys.dedup();
    for key in keys {
        match (old.get(key), new.get(key)) {
            (Some(o), Some(n)) if o != n => {
                return Err(format!("changed line:\n  recorded: {o}\n  this run: {n}"))
            }
            (Some(o), None) => return Err(format!("missing line: {o}")),
            (None, Some(n)) => return Err(format!("extra line: {n}")),
            _ => {}
        }
    }
    Ok(())
}

/// Checks `lines` (in any order) against the committed record of `record`
/// and reports on stderr, so a bin's stdout stays byte-stable; exits the
/// process with status 1 on any difference. With `CORD_UPDATE_GOLDEN` set
/// it rewrites the record instead.
pub fn enforce(record: &str, mut lines: Vec<String>) {
    lines.sort();
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    let path = path(record);
    if updating() {
        std::fs::create_dir_all("results/records")
            .and_then(|()| std::fs::write(&path, &text))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("record re-recorded: {path} ({} lines)", lines.len());
        return;
    }
    let Ok(recorded) = std::fs::read_to_string(&path) else {
        eprintln!("no record at {path}; create it with CORD_UPDATE_GOLDEN=1");
        std::process::exit(1);
    };
    if let Err(e) = diff(&recorded, &text) {
        eprintln!("record check FAILED against {path}, {e}");
        eprintln!("re-record with CORD_UPDATE_GOLDEN=1 if the change is intended");
        std::process::exit(1);
    }
    eprintln!("record check: ok ({} lines equal {path})", lines.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = "a events=10 fp=1\nb events=20 fp=2\nc events=30 fp=3\n";

    #[test]
    fn identical_record_passes() {
        assert_eq!(diff(RECORD, RECORD), Ok(()));
    }

    #[test]
    fn changed_count_fails_naming_the_line() {
        let run = RECORD.replace("events=20", "events=21");
        let err = diff(RECORD, &run).unwrap_err();
        assert!(err.starts_with("changed line"), "{err}");
        assert!(err.contains("recorded: b events=20 fp=2"), "{err}");
        assert!(err.contains("this run: b events=21 fp=2"), "{err}");
    }

    #[test]
    fn missing_cell_fails_naming_the_line() {
        let run = RECORD.replace("b events=20 fp=2\n", "");
        assert_eq!(
            diff(RECORD, &run),
            Err("missing line: b events=20 fp=2".to_string())
        );
    }

    #[test]
    fn extra_cell_fails_naming_the_line() {
        let run = format!("{RECORD}bb events=25 fp=9\n");
        assert_eq!(
            diff(RECORD, &run),
            Err("extra line: bb events=25 fp=9".to_string())
        );
    }
}
