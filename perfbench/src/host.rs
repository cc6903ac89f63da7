//! Host context read from `/proc`, recorded next to every run so an
//! outlier can be labelled as preemption (steal, involuntary switches,
//! load) rather than as an effect of the code.

use threefive::bench::report::HostInfo;

/// Aggregate CPU ticks from the first line of `/proc/stat`.
#[derive(Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

/// Reads the `cpu` line of `/proc/stat`; zeros if it is unreadable.
pub fn cpu_ticks() -> CpuTicks {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTicks {
        // user nice system idle iowait irq softirq steal (guest time is
        // already counted in user).
        total: fields.iter().take(8).sum(),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// The 1-minute load average from `/proc/loadavg`.
pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Involuntary context switches summed over the live threads of `pid`
/// (`self` for this process), from `/proc/<pid>/task/*/status`.
pub fn involuntary_switches(pid: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}

/// A `kB` line of `/proc/<pid>/status`, in MB (10^6 bytes).
fn status_mb(pid: &str, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Peak resident set (`VmHWM`) of `pid` in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Host state at one instant.
pub struct Sample {
    ticks: CpuTicks,
    load: f64,
    /// Involuntary switches of the sampled process.
    pub switches: u64,
}

impl Sample {
    /// The same host state with the switch count replaced.
    pub fn with_switches(&self, switches: u64) -> Sample {
        Sample { switches, ..*self }
    }
}

/// Samples the host and the involuntary switches of `pid`.
pub fn sample(pid: &str) -> Sample {
    Sample {
        ticks: cpu_ticks(),
        load: loadavg_1m(),
        switches: involuntary_switches(pid),
    }
}

/// The context line of one run: host fingerprint, `nproc`, load, steal
/// share over the measured window and involuntary switches of the
/// process doing the work before and after it.
pub fn context_json(before: &Sample, after: &Sample) -> String {
    let host = HostInfo::detect();
    let dt = after.ticks.total.saturating_sub(before.ticks.total);
    let steal = after.ticks.steal.saturating_sub(before.ticks.steal);
    let steal_frac = if dt == 0 {
        0.0
    } else {
        steal as f64 / dt as f64
    };
    format!(
        "{{\"context\": {{\"fingerprint\": \"{}\", \"cpu\": \"{}\", \"nproc\": {}, \
         \"loadavg_1m_before\": {}, \"loadavg_1m_after\": {}, \"steal_frac\": {}, \
         \"involuntary_switches_before\": {}, \"involuntary_switches_after\": {}}}}}",
        host.fingerprint,
        host.cpu.replace('"', "'"),
        host.available_threads,
        json_num(before.load),
        json_num(after.load),
        json_num(steal_frac),
        before.switches,
        after.switches
    )
}

/// A JSON number, or `null` for a non-finite value.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
