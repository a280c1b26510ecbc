//! Statistics and bookkeeping helpers shared by every workload:
//! percentiles with their tail sample count, span self time, metric
//! naming and failure accounting.

/// Nearest-rank `q`-percentile (`q` in `[0, 1]`) of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the `q`-percentile of ascending `sorted`: a
/// tail percentile is only reported when at least ten samples lie
/// beyond it.
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.len() - sorted.partition_point(|&x| x <= p)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A recorded interval, in nanoseconds from a shared origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

impl Span {
    /// Length of the interval.
    pub fn len(self) -> u64 {
        self.end - self.start
    }
}

/// A span's self time: its duration minus the part of it covered by
/// the union of its children (overlapping children count once; the
/// parts of a child outside the parent count not at all).
pub fn self_time(parent: Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<Span> = children
        .iter()
        .map(|c| Span {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.start < c.end)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut reach = parent.start;
    for c in clipped {
        if c.end > reach {
            covered += c.end - c.start.max(reach);
            reach = c.end;
        }
    }
    parent.len() - covered
}

/// `true` for a valid metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Attempted and failed operations. A refusal is a failure: it misses
/// every latency limit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Tally {
    /// Books one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_share(self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted(100);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_counts_samples_strictly_beyond() {
        // 1000 samples leave exactly ten beyond p99; 999 leave nine.
        assert_eq!(beyond(&sorted(1000), 0.99), 10);
        assert_eq!(beyond(&sorted(999), 0.99), 9);
        // Ties at the percentile are not beyond it.
        let ties = vec![1.0; 2000];
        assert_eq!(beyond(&ties, 0.99), 0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Span {
            start: 100,
            end: 200,
        };
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        let kids = [
            Span {
                start: 110,
                end: 120,
            },
            Span {
                start: 150,
                end: 170,
            },
        ];
        assert_eq!(self_time(parent, &kids), 70);
        // Overlapping and nested children count once.
        let kids = [
            Span {
                start: 110,
                end: 140,
            },
            Span {
                start: 120,
                end: 130,
            },
            Span {
                start: 135,
                end: 160,
            },
        ];
        assert_eq!(self_time(parent, &kids), 50);
        // Children reaching outside the parent are clipped to it.
        let kids = [
            Span {
                start: 50,
                end: 120,
            },
            Span {
                start: 190,
                end: 300,
            },
        ];
        assert_eq!(self_time(parent, &kids), 70);
        // Full cover leaves no self time.
        assert_eq!(
            self_time(
                parent,
                &[Span {
                    start: 0,
                    end: 1000
                }]
            ),
            0
        );
    }

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "core.aborts.doomed",
            "server.begin_p50_us",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn failure_accounting() {
        let mut t = Tally::default();
        assert_eq!(t.failed_share(), 0.0);
        t.record(true);
        t.record(false);
        t.record(true);
        t.record(false);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(t.failed_share(), 0.5);
        t.add(Tally {
            attempted: 6,
            failed: 0,
        });
        assert_eq!(t.failed_share(), 0.2);
    }
}
