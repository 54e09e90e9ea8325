//! Process-level helpers: the environment guard, the run stamp, peak RSS
//! and the seeded generator that makes every input.

/// Variables that change the measured program: `MOTOR_PROGRESS` overrides
/// `ProgressConfig::off()`, and the doctor and telemetry variables start
/// monitor threads inside `run_cluster`.
pub const FORBIDDEN_ENV: [&str; 3] = ["MOTOR_PROGRESS", "MOTOR_DOCTOR", "MOTOR_TELEMETRY"];

/// The forbidden variables that are set, in [`FORBIDDEN_ENV`] order.
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, `rustc -V` and the git commit (or `unknown` outside a git
/// checkout), for stamping every output.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let git = std::env::var("MOTOR_GIT_SHA")
        .ok()
        .or_else(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} rustc=\"{rustc}\" git={git}")
}

/// Restart the process's peak-RSS mark at its current RSS, so that
/// [`peak_rss_mb`] covers what runs from here. Best effort: where the
/// kernel refuses, the mark keeps the whole process's peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: small, seedable, and the same stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `purpose` under the same seed.
    pub fn derive(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_purposes_differ() {
        assert_eq!(Rng::derive(7, 1).bytes(16), Rng::derive(7, 1).bytes(16));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
        let mut r = Rng::derive(3, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn peak_rss_is_read_after_a_reset() {
        assert!(peak_rss_mb() > 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
