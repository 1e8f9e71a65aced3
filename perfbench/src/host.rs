//! Host context and build provenance printed with every result, so a noisy
//! run or a result from a different build can be recognized afterwards.

/// Compile-time build provenance recorded by `build.rs`. Results whose
/// provenance lines differ were built differently and must not be
/// compared.
pub fn provenance() -> String {
    format!(
        "profile={} opt-level={} rustflags='{}' rustc='{}'",
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
        env!("PERFBENCH_RUSTFLAGS"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1/5/15-minute load averages, or `"unknown"` off Linux.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// The first CPU's model name, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The nominal time of the [`calibrate`] kernel, ms: about its fastest on
/// the 2-core Xeon host the benchmark was tuned on, so reference ms read
/// close to host ms on a quiet host. Only ratios between runs on the same
/// host are meaningful.
pub const CAL_REF_MS: f64 = 8.75;

/// Converts `host_ms`, measured between calibrations that took `before`
/// and `after` ms, into reference ms: the time it would have taken while
/// the host ran the kernel in [`CAL_REF_MS`]. On a shared machine the
/// host's speed drifts by tens of percent within seconds; the kernel slows
/// with it, so the ratio cancels the drift across a short unit of work.
pub fn to_reference(host_ms: f64, before: f64, after: f64) -> f64 {
    host_ms * CAL_REF_MS / ((before + after) / 2.0)
}

/// Times a fixed kernel shaped like an event loop (binary-heap pops and
/// pushes, indexed state updates, float math) and returns ms. It calls no
/// repository code, so only the host's speed moves it.
pub fn calibrate() -> f64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let t = std::time::Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_b133_11eb);
        z ^ (z >> 31)
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..4096).map(|i| Reverse((next() >> 40, i))).collect();
    let mut slots = vec![0.0f64; 4096];
    for _ in 0..100_000 {
        let Reverse((at, i)) = heap.pop().expect("heap stays full");
        let s = &mut slots[i as usize];
        *s = (*s * 0.999 + at as f64).sqrt();
        heap.push(Reverse((at + (next() >> 48), i)));
    }
    std::hint::black_box(&slots);
    t.elapsed().as_secs_f64() * 1e3
}

/// This process's peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
