//! Process CPU time and peak memory from `/proc/self`, and the one allocator
//! setting that makes the peak repeatable.

/// Kernel clock ticks per second as exposed to user space (`USER_HZ`). It is
/// 100 on every Linux ABI this benchmark builds for, and there is no libc
/// binding here to ask `sysconf(_SC_CLK_TCK)`.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field is the command in parentheses and may itself contain
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15 of the line, i.e. the 12th and
/// 13th after the command.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`
/// (`VmHWM:  123456 kB`).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb as f64 / 1024.0)
}

/// Fix glibc's mmap threshold at 1 MiB. Call once, before any thread starts.
///
/// Left alone, glibc raises the threshold to the size of the first large
/// block that is freed, after which blocks of that size come from the heap;
/// whether a freed 15 MB block (the permutation `RandomTuner` builds for
/// 3mm-small) is reused or a second one is carved out beside it then depends
/// on where other threads' small allocations happened to land, and the same
/// `execute-hot` run peaked at 19.6 MiB or 33.1 MiB. With the threshold
/// fixed, large blocks are always mapped and unmapped on their own and the
/// peak repeats within 2 %. Other C libraries are left as they are.
pub fn pin_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented tuning entry point, with
        // this exact C signature (two `int`s in, `int` out). It only changes
        // allocator parameters, and no other thread exists yet.
        let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
        assert_eq!(accepted, 1, "glibc refused M_MMAP_THRESHOLD = 1 MiB");
    }
}

/// CPU seconds this process (all threads) has used so far.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well formed on Linux")
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mb(&s))
        .expect("/proc/self/status has a VmHWM line on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command() {
        let plain =
            "4242 (bench) S 1 4242 4242 0 -1 4194304 500 0 0 0 150 25 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_cpu_seconds(plain), Some(1.75));
        // A command with spaces and a closing parenthesis must not shift fields.
        let odd = "4242 (my (odd) name) R 1 4242 4242 0 -1 4194304 500 0 0 0 7 3 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_cpu_seconds(odd), Some(0.1));
        assert_eq!(parse_cpu_seconds("4242 (short) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn status_peak_rss_is_read_in_kib() {
        let status =
            "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   4096 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(50.0));
        assert_eq!(parse_peak_rss_mb("Name:\tbench\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
