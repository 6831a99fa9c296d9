//! The `CORD_*` run knobs, parsed once per process.

use std::sync::OnceLock;

use cord_proto::FaultSpec;
use cord_sim::trace::{ObsConfig, Tracer};

use crate::System;

/// The settings every [`System::new`] of a process applies. A binary's
/// `main` parses them from the environment and installs them once; library
/// code and tests never install, so their systems start from the default
/// (no faults, the monolithic engine, no observers) and change it through
/// the [`System`] setters.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// `CORD_FAULTS`: fault injection plus the reliable transport.
    pub faults: Option<FaultSpec>,
    /// `CORD_SIM_THREADS`: `Some(w)` runs the sharded engine on `w` workers.
    pub sim_threads: Option<usize>,
    /// `CORD_TRACE`, `CORD_OBS`, `CORD_PROFILE`, `CORD_FLIGHT` and their
    /// `_OUT` paths.
    pub obs: ObsConfig,
}

static INSTALLED: OnceLock<RunConfig> = OnceLock::new();

impl RunConfig {
    /// Parses the run knobs from `get` (knob name → value). An unset or
    /// empty `CORD_FAULTS` arms no faults, and a malformed one is an error
    /// that names the knob; a `CORD_SIM_THREADS` that is unset, empty, `0`
    /// or unparsable selects the monolithic engine.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let faults = get("CORD_FAULTS")
            .filter(|spec| !spec.is_empty())
            .map(|spec| FaultSpec::parse(&spec).map_err(|e| format!("CORD_FAULTS: {e}")))
            .transpose()?;
        let sim_threads = get("CORD_SIM_THREADS")
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n >= 1);
        let obs = ObsConfig::from_lookup(get);
        Ok(RunConfig {
            faults,
            sim_threads,
            obs,
        })
    }

    /// [`RunConfig::from_lookup`] over the process environment.
    pub fn from_env() -> Result<Self, String> {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// [`RunConfig::from_env`] for a binary's `main`: a malformed knob ends
    /// the process with status 2 before any run starts.
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Makes this the config of every later [`System::new`] in the
    /// process. For a binary's `main` only; panics when called twice.
    pub fn install(self) {
        assert!(
            INSTALLED.set(self).is_ok(),
            "RunConfig::install called twice"
        );
    }

    /// Applies the installed config, if any, to a new system.
    pub(crate) fn apply_installed(sys: &mut System) {
        let Some(run) = INSTALLED.get() else { return };
        sys.lane.tracer = Tracer::from_config(&run.obs);
        sys.sim_threads = run.sim_threads;
        if let Some(fs) = &run.faults {
            sys.set_faults(fs.plan.clone(), fs.xport);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::RunConfig;

    fn parse(knob: &str, value: &str) -> Result<RunConfig, String> {
        RunConfig::from_lookup(|k| (k == knob).then(|| value.to_string()))
    }

    #[test]
    fn run_knobs_parse_without_the_environment() {
        assert!(parse("CORD_FAULTS", "seed=1; drop=0.2")
            .unwrap()
            .faults
            .is_some());
        assert!(parse("CORD_FAULTS", "").unwrap().faults.is_none());
        assert!(parse("", "").unwrap().faults.is_none());
        let err = parse("CORD_FAULTS", "drop=lots").unwrap_err();
        assert!(err.starts_with("CORD_FAULTS: "), "{err}");
        for (v, want) in [("", None), ("0", None), ("x", None), (" 2 ", Some(2))] {
            assert_eq!(
                parse("CORD_SIM_THREADS", v).unwrap().sim_threads,
                want,
                "{v:?}"
            );
        }
        // The observability knobs go through `ObsConfig::from_lookup`.
        assert_eq!(parse("CORD_FLIGHT", "32").unwrap().obs.flight, Some(32));
    }
}
