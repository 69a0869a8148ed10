//! Seeded inputs and the plaintext oracle every timed answer is checked
//! against.
//!
//! Inputs come from the benchmark's own splitmix64 stream, not from the
//! crates' PRG: a change to the system under test must not change what
//! the benchmark asks of it. The oracle is plain arithmetic over the same
//! columns; a unit test pins it to `prism_baseline::PlainDataset`, whose
//! per-cell scans are quadratic and too slow to run at 100 000 cells.

use prism_protocol::average::AvgCell;
use prism_protocol::AggResult;

/// splitmix64: the benchmark's own generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `1..=max` (the modulo bias at these ranges is far below
    /// anything a latency can see).
    pub fn value(&mut self, max: u64) -> u64 {
        self.next() % max + 1
    }

    pub fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// One owner's plaintext columns over the dense cell domain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnerData {
    /// 1 where the owner holds the cell.
    pub indicator: Vec<u64>,
    /// Per-cell sum of the aggregation attribute.
    pub sums: Vec<u64>,
    /// Per-cell tuple count.
    pub counts: Vec<u64>,
}

/// Shape of a generated dataset.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub owners: usize,
    pub cells: usize,
    /// Probability that an owner holds a cell.
    pub hold: f64,
    /// Aggregation values are drawn from `1..value_max`.
    pub value_max: u64,
}

/// Cells `[start, start + cells)` of every owner, one tuple per held
/// cell. `epoch` separates the bootstrap (0) from each later append.
pub fn generate(seed: u64, epoch: u64, shape: Shape) -> Vec<OwnerData> {
    (0..shape.owners)
        .map(|j| {
            let mut rng = Rng::new(
                seed ^ (j as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407)
                    ^ epoch.wrapping_mul(0x9FB2_1C65_1E98_DF25),
            );
            let mut d = OwnerData::default();
            for _ in 0..shape.cells {
                let held = rng.chance(shape.hold);
                d.indicator.push(u64::from(held));
                d.counts.push(u64::from(held));
                d.sums.push(if held {
                    rng.value(shape.value_max - 1)
                } else {
                    0
                });
            }
            d
        })
        .collect()
}

/// Append `more` (same owner order) to `data`.
pub fn extend(data: &mut [OwnerData], more: &[OwnerData]) {
    for (d, m) in data.iter_mut().zip(more) {
        d.indicator.extend_from_slice(&m.indicator);
        d.sums.extend_from_slice(&m.sums);
        d.counts.extend_from_slice(&m.counts);
    }
}

/// FNV-1a over every column: same seed, same digest.
pub fn digest(data: &[OwnerData]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for d in data {
        for col in [&d.indicator, &d.sums, &d.counts] {
            for &v in col {
                for byte in v.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    h
}

/// Expected answers, computed once per workload from the plaintext.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Common cells (0-based), ascending.
    pub common: Vec<usize>,
    /// Per cell: held by at least one owner.
    pub union: Vec<bool>,
    /// Per cell: Σ over owners of the attribute, 0 outside the intersection.
    pub sums: Vec<u64>,
    /// Per cell: Σ over owners of tuple counts, 0 outside the intersection.
    pub counts: Vec<u64>,
}

impl Oracle {
    pub fn of(data: &[OwnerData]) -> Oracle {
        let mut o = Oracle::default();
        o.extend(data, 0);
        o
    }

    /// Extend the expectation over cells `from..` of `data` (the
    /// streaming workload calls this after every append).
    pub fn extend(&mut self, data: &[OwnerData], from: usize) {
        let cells = data.first().map_or(0, |d| d.indicator.len());
        for i in from..cells {
            let holders = data.iter().filter(|d| d.indicator[i] == 1).count();
            let common = holders == data.len();
            if common {
                self.common.push(i);
            }
            self.union.push(holders > 0);
            let total = |col: fn(&OwnerData) -> &Vec<u64>| -> u64 {
                if common {
                    data.iter().map(|d| col(d)[i]).sum()
                } else {
                    0
                }
            };
            self.sums.push(total(|d| &d.sums));
            self.counts.push(total(|d| &d.counts));
        }
    }

    pub fn union_count(&self) -> usize {
        self.union.iter().filter(|&&u| u).count()
    }

    /// The expected `sum(0) + avg(0) + count` batch over cells `..cells`.
    pub fn batch(&self, cells: usize) -> Vec<AggResult> {
        let sums = self.sums[..cells].to_vec();
        let counts = self.counts[..cells].to_vec();
        let avg = sums
            .iter()
            .zip(&counts)
            .map(|(&sum, &count)| AvgCell {
                sum,
                count,
                average: if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                },
            })
            .collect();
        vec![
            AggResult::Sums(sums.clone()),
            AggResult::Avg(avg),
            AggResult::Counts(counts),
        ]
    }

    /// Per common cell `(cell, maximum, owners holding it)`.
    pub fn maxima(&self, data: &[OwnerData]) -> Vec<(usize, u64, Vec<bool>)> {
        self.common
            .iter()
            .map(|&i| {
                let best = data.iter().map(|d| d.sums[i]).max().unwrap_or(0);
                (i, best, data.iter().map(|d| d.sums[i] == best).collect())
            })
            .collect()
    }

    /// Per common cell `(cell, middle per-owner sums)`: one value for an
    /// odd owner count, `(low, high)` for an even one.
    pub fn medians(&self, data: &[OwnerData]) -> Vec<(usize, Vec<u64>)> {
        self.common
            .iter()
            .map(|&i| {
                let mut totals: Vec<u64> = data.iter().map(|d| d.sums[i]).collect();
                totals.sort_unstable();
                let m = totals.len();
                let mids = if m % 2 == 1 {
                    vec![totals[m / 2]]
                } else {
                    vec![totals[m / 2 - 1], totals[m / 2]]
                };
                (i, mids)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_baseline::PlainDataset;

    const SHAPE: Shape = Shape {
        owners: 4,
        cells: 300,
        hold: 0.8,
        value_max: 2000,
    };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = generate(42, 0, SHAPE);
        assert_eq!(digest(&a), digest(&generate(42, 0, SHAPE)));
        assert_ne!(digest(&a), digest(&generate(7, 0, SHAPE)));
        assert_ne!(digest(&a), digest(&generate(42, 1, SHAPE)));
        assert!(a
            .iter()
            .all(|d| d.sums.iter().all(|&v| v < SHAPE.value_max)));
    }

    #[test]
    fn oracle_agrees_with_plain_dataset() {
        let data = generate(42, 0, SHAPE);
        let plain = PlainDataset::new(
            data.iter()
                .map(|d| {
                    (0..SHAPE.cells)
                        .filter(|&i| d.indicator[i] == 1)
                        .map(|i| (i as u64 + 1, d.sums[i]))
                        .collect()
                })
                .collect(),
        );
        let oracle = Oracle::of(&data);
        let cells = |v: Vec<u64>| -> Vec<usize> { v.iter().map(|&c| c as usize - 1).collect() };
        assert_eq!(oracle.common, cells(plain.intersection()));
        assert!(!oracle.common.is_empty() && oracle.common.len() < SHAPE.cells);
        assert_eq!(oracle.union_count(), plain.union().len());
        for (&c, &(sum, count, _)) in &plain.psi_avg() {
            assert_eq!(oracle.sums[c as usize - 1], sum);
            assert_eq!(oracle.counts[c as usize - 1], count);
        }
        let max = plain.psi_max();
        for (cell, best, holders) in oracle.maxima(&data) {
            let (want, want_holders) = &max[&(cell as u64 + 1)];
            assert_eq!(best, *want);
            let got: Vec<usize> = (0..SHAPE.owners).filter(|&j| holders[j]).collect();
            assert_eq!(&got, want_holders);
        }
        let median = plain.psi_median();
        for (cell, mids) in oracle.medians(&data) {
            assert_eq!(mids, median[&(cell as u64 + 1)]);
        }
    }

    #[test]
    fn extending_equals_generating_whole() {
        let mut data = generate(5, 0, SHAPE);
        let mut oracle = Oracle::of(&data);
        let more = generate(5, 1, Shape { cells: 50, ..SHAPE });
        extend(&mut data, &more);
        oracle.extend(&data, SHAPE.cells);
        let whole = Oracle::of(&data);
        assert_eq!(oracle.common, whole.common);
        assert_eq!(oracle.sums, whole.sums);
        assert_eq!(oracle.batch(350), whole.batch(350));
    }
}
