//! What a result file needs to be read against: which host, which
//! commit, which kernel tier, and a one-second measurement each of what
//! this host's one core can multiply-add and stream.

use crate::json::Json;
use std::process::Command;
use std::time::{Duration, Instant};

/// First line of a command's standard output, or `"unknown"`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn detected(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => is_x86_feature_detected!("avx2"),
            "fma" => is_x86_feature_detected!("fma"),
            "avxvnni" => is_x86_feature_detected!("avxvnni"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// GFLOP/s one thread reaches on independent f32 fused multiply-adds held
/// in registers: the compute roof `scorer.gflops` is read against.
pub fn peak_fma_gflops(budget: Duration) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if detected("avx2") && detected("fma") {
        let started = Instant::now();
        let mut flops = 0u64;
        let mut sink = 0.0f32;
        while started.elapsed() < budget {
            // SAFETY: avx2 and fma were detected on this CPU just above.
            sink += unsafe { fma_block_avx2(1 << 16) };
            // 10 accumulators × 8 lanes × 2 flops per iteration.
            flops += (1u64 << 16) * 10 * 8 * 2;
        }
        std::hint::black_box(sink);
        return flops as f64 / started.elapsed().as_secs_f64() / 1e9;
    }
    let started = Instant::now();
    let mut flops = 0u64;
    let mut acc = [1.0f32; 16];
    while started.elapsed() < budget {
        for _ in 0..(1 << 14) {
            for a in &mut acc {
                *a = *a * 0.999_999 + 1e-7;
            }
        }
        flops += (1u64 << 14) * 16 * 2;
    }
    std::hint::black_box(acc);
    flops as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// `iters` rounds of ten independent 8-lane FMAs (enough chains to cover
/// the FMA latency on two ports); returns a lane sum so the work is used.
///
/// # Safety
/// The CPU must support `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_block_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let scale = _mm256_set1_ps(0.999_999);
    let step = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); 10];
    for _ in 0..iters {
        for a in &mut acc {
            *a = _mm256_fmadd_ps(*a, scale, step);
        }
    }
    let mut total = _mm256_setzero_ps();
    for a in acc {
        total = _mm256_add_ps(total, a);
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: `lanes` is 8 f32s, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), total) };
    lanes.iter().sum()
}

/// GB/s one thread streams through `a[i] = b[i] + s·c[i]` over arrays far
/// larger than the caches (STREAM triad; three arrays counted per pass):
/// the memory roof `scorer.bytes_per_frame` is read against.
pub fn triad_gbps(budget: Duration) -> f64 {
    const N: usize = 8 << 20; // 3 × 32 MB of f32
    let mut a = vec![0.0f32; N];
    let b = vec![1.5f32; N];
    let c = vec![0.25f32; N];
    let started = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || started.elapsed() < budget {
        let s = 1.0 + passes as f32;
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        std::hint::black_box(&mut a);
        passes += 1;
    }
    (passes * 3 * (N * 4) as u64) as f64 / started.elapsed().as_secs_f64() / 1e9
}

/// The host fingerprint written into every result file.
pub fn fingerprint() -> Json {
    let second = Duration::from_secs(1);
    Json::obj(vec![
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        ("cpu", Json::str(cpu_model())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .into(),
        ),
        ("avx2", detected("avx2").into()),
        ("avxvnni", detected("avxvnni").into()),
        ("peak_fma_gflops_1thread", peak_fma_gflops(second).into()),
        ("triad_gbps_1thread", triad_gbps(second).into()),
    ])
}
