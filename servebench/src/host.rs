//! Facts about the host a run was measured on.

use dpx_data::Dataset;
use dpx_serve::Json;
use std::path::Path;
use std::time::Instant;

/// The `host` block printed with every run.
pub struct Host {
    pub cores: usize,
    pub profile: &'static str,
    /// Filesystem type holding the ledger directory.
    pub ledger_fs: String,
    /// Sequential read bandwidth over the workload's dataset, GB/s.
    pub read_gbps: f64,
}

impl Host {
    pub fn measure(data: &Dataset, ledger_dir: &Path) -> Host {
        Host {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            ledger_fs: filesystem_of(ledger_dir),
            read_gbps: read_gbps(data),
        }
    }

    pub fn json(&self) -> Json {
        Json::object()
            .field("cores", self.cores)
            .field("profile", self.profile)
            .field("ledger_fs", self.ledger_fs.as_str())
            .field("read_gbps", self.read_gbps)
    }
}

/// Reads every column of `data` front to back, the way the counts kernel
/// streams it; the median of five passes, in GB/s.
fn read_gbps(data: &Dataset) -> f64 {
    let arity = data.schema().arity();
    let bytes = (data.n_rows() * arity * std::mem::size_of::<u32>()) as f64;
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut sum = 0u64;
            for a in 0..arity {
                sum = sum.wrapping_add(data.column(a).iter().map(|&v| u64::from(v)).sum::<u64>());
            }
            std::hint::black_box(sum);
            bytes / start.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[2]
}

/// The type of the filesystem mounted deepest above `path`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
