//! What the numbers were measured on: host description for the
//! self-describing result header, the process high-water mark, and the
//! STREAM-style memory-bandwidth ceiling.

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::stats;

/// Everything a result needs to say about where it came from.
#[derive(Debug, Clone)]
pub struct HostEnv {
    pub nproc: usize,
    /// `L1d 96K, L2 4096K, L3 266240K` as sysfs reports cpu0's caches.
    pub caches: String,
    /// Sum of cpu0's data/unified cache sizes in bytes (0 if unknown).
    pub cache_bytes: u64,
    pub kernels: &'static str,
    pub git_rev: String,
    pub rustc: String,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_cache_size(raw: &str) -> u64 {
    let raw = raw.trim();
    let (digits, mult) = match raw.as_bytes().last() {
        Some(b'K') => (&raw[..raw.len() - 1], 1u64 << 10),
        Some(b'M') => (&raw[..raw.len() - 1], 1 << 20),
        Some(b'G') => (&raw[..raw.len() - 1], 1 << 30),
        _ => (raw, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n * mult)
}

fn cpu0_caches() -> (String, u64) {
    let mut parts = Vec::new();
    let mut total = 0u64;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let kind = kind.trim();
        if kind == "Instruction" {
            continue;
        }
        let suffix = if kind == "Data" { "d" } else { "" };
        parts.push(format!("L{}{suffix} {}", level.trim(), size.trim()));
        total += parse_cache_size(&size);
    }
    if parts.is_empty() {
        ("unknown".to_string(), 0)
    } else {
        (parts.join(", "), total)
    }
}

impl HostEnv {
    pub fn probe() -> HostEnv {
        let (caches, cache_bytes) = cpu0_caches();
        HostEnv {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            caches,
            cache_bytes,
            kernels: ickpt::storage::kernels::backend_name(),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
        }
    }

    /// The header as the fields of a JSON object (no braces).
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "\"nproc\":{},\"caches\":\"{}\",\"cache_bytes\":{},\"kernels\":\"{}\",\"git_rev\":\"{}\",\"rustc\":\"{}\"",
            self.nproc,
            crate::json_escape(&self.caches),
            self.cache_bytes,
            self.kernels,
            crate::json_escape(&self.git_rev),
            crate::json_escape(&self.rustc)
        );
        out
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Measured memory-bandwidth ceiling of one thread.
#[derive(Debug, Clone, Copy)]
pub struct Ceiling {
    /// `dst.copy_from_slice(src)`; bytes counted once (as every
    /// `*_gbps` metric counts its input), so traffic is twice this.
    pub copy_gbps: f64,
    /// Wrapping sum of the array read as `u64` words.
    pub read_gbps: f64,
}

/// STREAM-style copy and read over `array_bytes` arrays, median over
/// `reps` sweeps after one warm-up sweep that also faults the
/// pages in. Run with arrays of at least four times the last-level
/// cache, or the figure is a cache bandwidth.
pub fn measure_ceiling(array_bytes: usize, reps: usize) -> Ceiling {
    let words = array_bytes / 8;
    let src: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    let mut dst: Vec<u64> = vec![1; words];
    let gb = (words * 8) as f64 / 1e9;
    let mut copy = Vec::with_capacity(reps);
    let mut read = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(dst[words / 2]);
        let copy_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        // Four independent accumulators so the loop is bound by loads,
        // not by the add chain.
        let mut acc = [0u64; 4];
        for quad in black_box(&src).chunks_exact(4) {
            for (a, w) in acc.iter_mut().zip(quad) {
                *a = a.wrapping_add(*w);
            }
        }
        black_box(acc);
        let read_s = t.elapsed().as_secs_f64();
        if rep > 0 {
            copy.push(gb / copy_s);
            read.push(gb / read_s);
        }
    }
    Ceiling { copy_gbps: stats::median(&copy), read_gbps: stats::median(&read) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("96K\n"), 96 << 10);
        assert_eq!(parse_cache_size("4096K"), 4 << 20);
        assert_eq!(parse_cache_size("260M"), 260 << 20);
        assert_eq!(parse_cache_size("garbage"), 0);
    }

    #[test]
    fn ceiling_is_positive_on_a_small_array() {
        let c = measure_ceiling(1 << 20, 2);
        assert!(c.copy_gbps > 0.0 && c.read_gbps > 0.0);
    }

    #[test]
    fn peak_rss_reads() {
        assert!(peak_rss_mib() > 0.0);
    }
}
