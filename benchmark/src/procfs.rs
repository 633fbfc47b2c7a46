//! CPU time and peak memory of a process, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is
/// 100 on every Linux ABI; there is no libc here to ask `sysconf`.
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`: state is field 3, `utime` 14, `stime`
/// 15.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system, all threads) process `pid` has used.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_stat_ticks(&text)
        .map(|ticks| ticks as f64 / TICKS_PER_S)
        .ok_or_else(|| format!("{path}: cannot parse utime/stime"))
}

/// Peak resident set of process `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm_kb(&text)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// First `model name` of `/proc/cpuinfo`, for the fingerprint.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (serve) x) y) S 1 4242 4242 0 -1 4194304 913 0 0 0 \
                    1234 66 0 0 20 0 7 0 88888 123456789 2048 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1300));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tserve\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51234));
        assert_eq!(parse_vm_hwm_kb("Name:\tserve\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).expect("stat") >= 0.0);
        assert!(peak_rss_mb(pid).expect("status") > 0.1);
    }
}
