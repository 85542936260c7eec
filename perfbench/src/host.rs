//! Host readings: process CPU time, peak memory, the source commit, and
//! the stable hash the output check uses.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (Linux `USER_HZ`,
/// fixed at 100 by the kernel ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used, or
/// `None` where `/proc` is unavailable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 11 and 12 after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&git.join(reference)) {
        return id.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|id| id.trim().to_string())
                    .filter(|id| !id.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Wall seconds of a fixed reference kernel — streaming sums over 8 MiB
/// and FNV hashing of 4 MiB — read to tell how fast the host runs now.
pub fn reference_kernel_s() -> f64 {
    let floats: Vec<f64> = (0..1u32 << 20).map(f64::from).collect();
    let bytes: Vec<u8> = (0..1u32 << 22).map(|i| i as u8).collect();
    let start = std::time::Instant::now();
    let mut sum = 0.0;
    for _ in 0..20 {
        sum += std::hint::black_box(&floats).iter().sum::<f64>();
    }
    let mut h = Fnv::default();
    h.write(std::hint::black_box(&bytes));
    std::hint::black_box((sum, h.finish()));
    start.elapsed().as_secs_f64()
}

/// 64-bit FNV-1a: stable across Rust versions and platforms, unlike the
/// standard library's `DefaultHasher`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if Path::new("/proc/self/stat").exists() {
            assert!(process_cpu_s().is_some());
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
