//! Output checks: the committed artifact digests, the failure tally every
//! check feeds, and the host record the bounds were set on.

/// Checked outputs attempted and failed, with a message per failure.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Digests of what `repro` prints (and, for `main_observed`, writes) for
/// the canonical seed and the held-out seed; regenerate with `golden.sh`.
const GOLDEN: &str = include_str!("../golden.tsv");

/// The committed digest of `artifact` for `workload` at `seed`, if any.
pub fn golden(workload: &str, seed: u64, artifact: &str) -> Option<&'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == workload && f[1].parse() == Ok(seed) && f[2] == artifact)
        .map(|f| f[3])
}

/// Whether any digest is committed for `workload` at `seed`.
pub fn has_golden(workload: &str, seed: u64) -> bool {
    GOLDEN.lines().any(|l| {
        let f: Vec<&str> = l.split('\t').collect();
        f.len() == 4 && f[0] == workload && f[1].parse() == Ok(seed)
    })
}

/// The host the bounds in `BENCHMARK.json` were set on.
const BOUNDS_HOST: &str = include_str!("../host.txt");

/// This host, as `key=value` lines in the order of `host.txt`.
pub fn host() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("CSBENCH_RUSTC").to_string()),
    ]
}

/// The `host.txt` entries this host differs in, as `key: bounds vs here`.
pub fn host_differences(here: &[(&'static str, String)]) -> Vec<String> {
    here.iter()
        .filter_map(|(key, value)| {
            let bound = BOUNDS_HOST
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or("");
            (bound != value)
                .then(|| format!("{key}: bounds set on '{bound}', running on '{value}'"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_tally() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "boom".into());
        let mut d = Checks::default();
        d.check(false, || "bang".into());
        c.absorb(d);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.failures, vec!["boom", "bang"]);
    }

    #[test]
    fn every_workload_has_both_seeds_committed() {
        for w in crate::workloads::Workload::ALL {
            for seed in [crate::CANONICAL_SEED, crate::HELD_OUT_SEED] {
                assert!(
                    golden(w.name(), seed, "stdout").is_some(),
                    "{} {seed}",
                    w.name()
                );
            }
        }
        // main_observed prints what main_trace prints.
        for seed in [crate::CANONICAL_SEED, crate::HELD_OUT_SEED] {
            assert_eq!(
                golden("main_observed", seed, "stdout"),
                golden("main_trace", seed, "stdout")
            );
        }
    }
}
