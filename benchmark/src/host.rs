//! Host facts recorded beside every number, and process memory.

use serde::Value;

use crate::record::Metric;

/// The facts a reader needs to interpret a timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical cores (`available_parallelism`).
    pub cores: usize,
    /// Architecture plus the widest SIMD extension detected.
    pub isa: String,
    /// Whether the fused-multiply-add kernels are in effect (`DCN_FMA`).
    pub fma: bool,
    /// Worker threads of the parallel executor (`DCN_THREADS`, else cores).
    pub threads: usize,
    /// Raw `DCN_THREADS`, when set.
    pub dcn_threads_env: Option<String>,
    /// Raw `DCN_FMA`, when set.
    pub dcn_fma_env: Option<String>,
}

impl Host {
    /// Reads the facts of the running process.
    pub fn detect() -> Host {
        let par = dcn_tensor::ParConfig::current();
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa: isa(),
            fma: par.fma,
            threads: par.threads,
            dcn_threads_env: std::env::var("DCN_THREADS").ok(),
            dcn_fma_env: std::env::var("DCN_FMA").ok(),
        }
    }

    /// The facts as a JSON object.
    pub fn to_value(&self) -> Value {
        let opt = |v: &Option<String>| v.clone().map_or(Value::Null, Value::Str);
        Value::Obj(vec![
            ("cores".into(), Value::Num(self.cores as f64)),
            ("isa".into(), Value::Str(self.isa.clone())),
            ("fma".into(), Value::Bool(self.fma)),
            ("threads".into(), Value::Num(self.threads as f64)),
            ("dcn_threads_env".into(), opt(&self.dcn_threads_env)),
            ("dcn_fma_env".into(), opt(&self.dcn_fma_env)),
        ])
    }
}

#[cfg(target_arch = "x86_64")]
fn isa() -> String {
    let widest = if is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "sse2"
    };
    let fma = if is_x86_feature_detected!("fma") {
        "+fma"
    } else {
        ""
    };
    format!("x86_64-{widest}{fma}")
}

#[cfg(not(target_arch = "x86_64"))]
fn isa() -> String {
    std::env::consts::ARCH.to_string()
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The run's resident-set peak, recorded but not gated: it depends on
/// how the allocator's per-thread arenas happen to fill, and varied from
/// 252 to 328 MiB over ten identical train-cifar runs.
pub fn memory_metrics() -> Vec<Metric> {
    peak_rss_mib()
        .map(|rss| Metric::scalar("peak_rss_mb", "MiB", rss))
        .into_iter()
        .collect()
}
