//! Host-process probes and the in-memory span recorder.
//!
//! CPU time, minor faults and peak RSS come from `/proc/self`, so the
//! probes cost a file read each and need no extra crates. Spans are
//! only recorded when tracing is on; untraced runs just read the clock.

use std::fs;
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative counters of this process at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub minflt: u64,
    pub user_s: f64,
    pub sys_s: f64,
}

/// Reads minor faults and user/system CPU time (all threads) from
/// `/proc/self/stat`; zeros where the file is unreadable.
pub fn proc_sample() -> ProcSample {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return ProcSample::default();
    };
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let num = |field: usize| -> u64 { f.get(field - 3).and_then(|s| s.parse().ok()).unwrap_or(0) };
    ProcSample {
        minflt: num(10),
        user_s: num(14) as f64 / TICKS_PER_S,
        sys_s: num(15) as f64 / TICKS_PER_S,
    }
}

/// Peak resident set size (`VmHWM`) of this process, in KiB.
pub fn vm_hwm_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Restarts the `VmHWM` count at the current RSS (Linux ≥ 4.0), so the
/// next read gives the peak since this call. Without it, reads stay
/// process-wide peaks.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// CPUs the host has online, whatever this process's affinity allows.
pub fn host_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    })
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Rep the span belongs to (0 = the untimed warm-up reps).
    pub rep: usize,
    pub start_s: f64,
    pub end_s: f64,
    pub minflt: u64,
    pub user_s: f64,
    pub sys_s: f64,
    /// `VmHWM` when the span closed.
    pub vm_hwm_kib: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An open span; close it with [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    start: Instant,
    at_open: ProcSample,
    idx: Option<usize>,
}

/// Times calls and, when tracing, keeps a span for each in memory.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rep: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.on = on;
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open {
                start: Instant::now(),
                at_open: ProcSample::default(),
                idx: None,
            };
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            rep: self.rep,
            start_s: 0.0,
            end_s: 0.0,
            minflt: 0,
            user_s: 0.0,
            sys_s: 0.0,
            vm_hwm_kib: 0,
        });
        self.stack.push(idx);
        let at_open = proc_sample();
        let start = Instant::now();
        self.spans[idx].start_s = (start - self.epoch).as_secs_f64();
        Open {
            start,
            at_open,
            idx: Some(idx),
        }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let secs = (end - open.start).as_secs_f64();
        if let Some(idx) = open.idx {
            let now = proc_sample();
            let span = &mut self.spans[idx];
            span.end_s = (end - self.epoch).as_secs_f64();
            span.minflt = now.minflt.saturating_sub(open.at_open.minflt);
            span.user_s = now.user_s - open.at_open.user_s;
            span.sys_s = now.sys_s - open.at_open.sys_s;
            span.vm_hwm_kib = vm_hwm_kib();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
        secs
    }
}
