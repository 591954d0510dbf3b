//! The host header printed before any number, and the roofline probes
//! every `*_gbps` figure is read against. Each probe runs once untimed
//! first: a first-touch memcpy measures page faults, not bandwidth.

use std::io::{Read, Write};
use std::path::Path;
use std::process::Command;

use crate::stats::{median, time};

/// What a bandwidth probe moves per call. 64 MiB: far beyond L2 / L3 on
/// the reference host, so the probes read DRAM (or page-cache) bandwidth.
pub const PROBE_BYTES: usize = 64 << 20;

/// Timed calls behind every probe's median, after one untimed call.
pub const REPS: usize = 5;

/// Where the numbers were taken. Stored with them.
#[derive(Debug, Clone)]
pub struct Header {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpu_flags: Vec<String>,
    pub kernel_tier: &'static str,
    pub rustc: String,
    pub git_rev: String,
}

/// The trimmed standard output of a command that succeeded.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn above_working_dir() -> std::path::PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_owned))
        .unwrap_or_default()
}

/// Client threads for the closed serve loop: `min(nproc, 4)`.
pub fn clients() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Header {
    pub fn probe(kernel_tier: &'static str) -> Header {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |key: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map_or("unknown", |(_, v)| v.trim())
        };
        // The flags the decode tiers and checksums could dispatch on.
        const WATCHED: [&str; 8] = [
            "sse4_2",
            "avx",
            "avx2",
            "bmi2",
            "avx512f",
            "avx512bw",
            "pclmulqdq",
            "sha_ni",
        ];
        let flags = field("flags");
        Header {
            nproc: nproc(),
            cpu_model: field("model name").to_owned(),
            cpu_flags: flags
                .split_whitespace()
                .filter(|f| WATCHED.contains(f))
                .map(str::to_owned)
                .collect(),
            kernel_tier,
            rustc: first_line(Command::new("rustc").arg("--version")),
            // The working directory or nothing: git must not climb out of
            // a checkout that is not a repository into one that is.
            git_rev: first_line(
                Command::new("git")
                    .args(["rev-parse", "--short", "HEAD"])
                    .env("GIT_CEILING_DIRECTORIES", above_working_dir()),
            ),
        }
    }

    pub fn print(&self) {
        println!(
            "# host: nproc={} cpu=\"{}\" flags=[{}] kernel_tier={}",
            self.nproc,
            self.cpu_model,
            self.cpu_flags.join(","),
            self.kernel_tier
        );
        println!("# build: rustc=\"{}\" git={}", self.rustc, self.git_rev);
    }

    pub fn to_json(&self) -> serde::Value {
        serde_json::json!({
            "nproc": self.nproc,
            "cpu_model": self.cpu_model,
            "cpu_flags": self.cpu_flags,
            "kernel_tier": self.kernel_tier,
            "rustc": self.rustc,
            "git_rev": self.git_rev,
        })
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Median GB/s of `f`, which moves `bytes` per call, after one untimed
/// warm-up call.
pub fn bandwidth(bytes: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..REPS).map(|_| time(&mut f).1).collect();
    gbps(bytes, median(&secs))
}

pub fn memcpy_gbps(bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    bandwidth(bytes, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&dst);
    })
}

/// Sequential `std::fs` read of a page-cached file in `scratch`: the
/// sandbox's page cache, not a device.
pub fn seq_read_gbps(scratch: &Path, bytes: usize) -> std::io::Result<f64> {
    let path = scratch.join("roofline.bin");
    std::fs::write(&path, vec![7u8; bytes])?;
    let mut buf = vec![0u8; bytes];
    let mut failed = None;
    let rate = bandwidth(bytes, || {
        let read = std::fs::File::open(&path).and_then(|mut f| f.read_exact(&mut buf));
        if let Err(e) = read {
            failed = Some(e);
        }
        std::hint::black_box(&buf);
    });
    std::fs::remove_file(&path)?;
    failed.map_or(Ok(rate), Err)
}

/// Median milliseconds of a 4 KiB write + `sync_all`.
pub fn fsync_ms(scratch: &Path) -> std::io::Result<f64> {
    let path = scratch.join("fsync.bin");
    let mut file = std::fs::File::create(&path)?;
    let block = [3u8; 4096];
    let mut once = || -> std::io::Result<f64> {
        let (r, secs) = time(|| file.write_all(&block).and_then(|()| file.sync_all()));
        r.map(|()| secs * 1e3)
    };
    once()?;
    let ms = (0..4 * REPS)
        .map(|_| once())
        .collect::<Result<Vec<_>, _>>()?;
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rss_read_this_host() {
        let h = Header::probe("scalar");
        assert!(h.nproc >= 1);
        assert!((1..=4).contains(&clients()));
        assert!(h.to_json().get("kernel_tier").is_some());
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn bandwidth_is_bytes_over_median_seconds() {
        let mut calls = 0;
        let rate = bandwidth(1_000_000, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert_eq!(calls, 1 + REPS);
        assert!(rate > 0.05 && rate < 0.6, "{rate}");
    }
}
