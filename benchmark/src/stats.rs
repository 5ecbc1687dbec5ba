//! Summary statistics shared by every workload: the percentile rule, the
//! open-loop due-time accounting, the backlog rule and the `max_rps`
//! ladder rule.

/// A request needs at least this many samples beyond a percentile before
/// that percentile is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The value at quantile `q` of an ascending slice, by nearest rank: the
/// smallest value with at least `q · n` samples at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// The highest quantile, capped at `cap`, that leaves at least
/// [`TAIL_SAMPLES`] samples strictly beyond it in a sample of `n`
/// (`None` when `n` is too small for any tail).
pub fn tail_quantile(n: usize, cap: f64) -> Option<f64> {
    if n <= TAIL_SAMPLES {
        return None;
    }
    // Nearest rank ceil(q·n) leaves n − ceil(q·n) samples beyond it; the
    // largest q with n − ceil(q·n) ≥ 10 is (n − 10) / n.
    Some(((n - TAIL_SAMPLES) as f64 / n as f64).min(cap))
}

/// A latency sample summarised by the percentile rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail quantile (0.99 when the sample allows it).
    pub tail_q: f64,
    /// The value at `tail_q`.
    pub tail: f64,
}

/// Summarise a latency sample: the median and the highest percentile up to
/// p99 that has at least ten samples beyond it. Failed requests enter as
/// `f64::INFINITY`, so they miss every latency limit.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary {
            n,
            p50: f64::NAN,
            tail_q: f64::NAN,
            tail: f64::NAN,
        };
    }
    // Too few samples for a tail: report the maximum as the tail.
    let tail_q = tail_quantile(n, 0.99).unwrap_or(1.0);
    Summary {
        n,
        p50: quantile_sorted(&v, 0.5),
        tail_q,
        tail: quantile_sorted(&v, tail_q),
    }
}

/// The value at quantile `q` of an unsorted sample, lowered by the
/// percentile rule when the sample is too small for `q`.
pub fn tail_at(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, tail_quantile(v.len(), q).unwrap_or(1.0))
}

/// Median over `parts` equal consecutive chunks of `values` of each
/// chunk's [`tail_at`] `q`. One stall on a shared host moves one chunk's
/// tail, not the reported value.
pub fn chunked_tail(values: &[f64], parts: usize, q: f64) -> f64 {
    let size = values.len().div_ceil(parts.max(1)).max(1);
    let tails: Vec<f64> = values.chunks(size).map(|c| tail_at(c, q)).collect();
    median(&tails)
}

/// One open-loop request, timed against the schedule rather than against
/// its own send time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Seconds after the phase start at which the request was due.
    pub due: f64,
    /// Seconds after the phase start at which it was actually sent.
    pub sent: f64,
    /// Seconds after the phase start at which its response arrived.
    pub done: f64,
    /// Whether the response was a correct success.
    pub ok: bool,
}

impl Timing {
    /// How late the generator sent it (never negative: a sender waits for
    /// the due time).
    pub fn late_s(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Latency from the due time: includes any wait a stall upstream
    /// imposed on this request. Failed requests count as infinitely slow.
    pub fn latency_s(&self) -> f64 {
        if self.ok {
            self.done - self.due
        } else {
            f64::INFINITY
        }
    }
}

/// Due time (seconds after the phase start) of request `i` at `rate` req/s.
pub fn due_time(i: usize, rate: f64) -> f64 {
    i as f64 / rate
}

/// Backlog rule: lateness that keeps growing through a phase means the
/// offered rate exceeds what the generator and server sustain together.
/// Growing ⇔ the mean lateness of the last fifth of the requests exceeds
/// that of the first fifth by more than `limit_s`.
pub fn backlog_grows(timings: &[Timing], limit_s: f64) -> bool {
    let n = timings.len();
    if n < 10 {
        return false;
    }
    let fifth = n / 5;
    let mean_late = |s: &[Timing]| s.iter().map(Timing::late_s).sum::<f64>() / s.len() as f64;
    mean_late(&timings[n - fifth..]) - mean_late(&timings[..fifth]) > limit_s
}

/// Outcome of one fixed-rate phase of the ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Offered rate, req/s.
    pub rate: f64,
    /// Tail latency (by [`summarize`]) in seconds, failures as infinity.
    pub tail_s: f64,
    /// Whether the backlog grew.
    pub backlog: bool,
}

/// The highest offered rate whose tail latency meets `tail_limit_s` without
/// a growing backlog (`None` when no rung passes).
pub fn max_passing_rate(rungs: &[Rung], tail_limit_s: f64) -> Option<f64> {
    rungs
        .iter()
        .filter(|r| r.tail_s <= tail_limit_s && !r.backlog)
        .map(|r| r.rate)
        .max_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10, 0.99), None);
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        // 500 samples support p98 only.
        assert_eq!(tail_quantile(500, 0.99), Some(0.98));
        for n in [11usize, 37, 100, 999, 1000, 1001, 5000] {
            let q = tail_quantile(n, 0.99).unwrap();
            let rank = (q * n as f64).ceil() as usize;
            assert!(n - rank >= TAIL_SAMPLES, "n={n} q={q} leaves {}", n - rank);
        }
    }

    #[test]
    fn summary_reports_p99_with_its_sample_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 990.0);
        // Ten samples (991..=1000) lie beyond the reported p99.
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
    }

    #[test]
    fn small_samples_fall_back_to_a_lower_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(s.tail, 90.0);
        let tiny = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((tiny.p50, tiny.tail), (2.0, 3.0));
    }

    #[test]
    fn failures_miss_every_limit() {
        let mut v: Vec<f64> = vec![0.001; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 11));
        let s = summarize(&v);
        assert!(s.tail.is_infinite());
        assert_eq!(s.p50, 0.001);
    }

    #[test]
    fn chunked_tail_ignores_a_stall_in_one_chunk() {
        let mut v: Vec<f64> = (0..3000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // A stall inflates 40 consecutive samples in the first chunk: more
        // than the 30 beyond the pooled p99, but only one chunk's tail.
        for x in &mut v[100..140] {
            *x = 50.0;
        }
        assert_eq!(summarize(&v).tail, 50.0);
        let t = chunked_tail(&v, 3, 0.99);
        assert!(t < 2.0, "{t}");
        // Each chunk of 1000 supports a true p99.
        assert_eq!(tail_quantile(1000, 0.99), Some(0.99));
        assert!((chunked_tail(&v, 3, 0.9) - 1.89).abs() < 1e-12);
        // 50 samples support p80 at most.
        let small: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_at(&small, 0.9), 40.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // A 100 ms stall delays the send of a request due at 1.0 s; its
        // latency includes the stall, not only the 2 ms service time.
        let t = Timing {
            due: 1.0,
            sent: 1.1,
            done: 1.102,
            ok: true,
        };
        assert!((t.late_s() - 0.1).abs() < 1e-12);
        assert!((t.latency_s() - 0.102).abs() < 1e-12);
        let failed = Timing { ok: false, ..t };
        assert!(failed.latency_s().is_infinite());
        // Early sends (clock jitter) are not negative lateness.
        let early = Timing {
            due: 1.0,
            sent: 0.9999,
            done: 1.001,
            ok: true,
        };
        assert_eq!(early.late_s(), 0.0);
        assert_eq!(due_time(250, 500.0), 0.5);
    }

    fn phase(n: usize, rate: f64, service: f64, servers: usize) -> Vec<Timing> {
        // Simulate an open-loop generator with `servers` blocking senders.
        let mut free = vec![0.0f64; servers];
        (0..n)
            .map(|i| {
                let due = due_time(i, rate);
                let s = free
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(j, _)| j)
                    .unwrap();
                let sent = due.max(free[s]);
                free[s] = sent + service;
                Timing {
                    due,
                    sent,
                    done: sent + service,
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn backlog_grows_only_above_capacity() {
        // Two senders at 2 ms each sustain 1000 req/s.
        assert!(!backlog_grows(&phase(1000, 500.0, 0.002, 2), 0.01));
        assert!(!backlog_grows(&phase(1000, 900.0, 0.002, 2), 0.01));
        assert!(backlog_grows(&phase(2000, 1500.0, 0.002, 2), 0.01));
    }

    #[test]
    fn ladder_picks_the_highest_passing_rung() {
        let rungs = [
            Rung {
                rate: 100.0,
                tail_s: 0.004,
                backlog: false,
            },
            Rung {
                rate: 400.0,
                tail_s: 0.008,
                backlog: false,
            },
            // Meets the tail limit but its backlog grows: rejected.
            Rung {
                rate: 800.0,
                tail_s: 0.009,
                backlog: true,
            },
            Rung {
                rate: 1600.0,
                tail_s: 0.5,
                backlog: true,
            },
        ];
        assert_eq!(max_passing_rate(&rungs, 0.010), Some(400.0));
        assert_eq!(max_passing_rate(&rungs, 0.005), Some(100.0));
        assert_eq!(max_passing_rate(&rungs, 0.001), None);
        // A rung with failures has an infinite tail and never passes.
        let failing = [Rung {
            rate: 50.0,
            tail_s: f64::INFINITY,
            backlog: false,
        }];
        assert_eq!(max_passing_rate(&failing, 1.0), None);
    }
}
