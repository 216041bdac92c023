//! Output checks: every run must leave a proper (partial) coloring, and runs
//! on pinned seeds must reproduce their recorded outcome digest exactly.

use std::fmt;

use crate::api::{self, RunSummary, UnitDiskGraph};
use crate::pinned::PINNED;

/// A run's outcome in a few exact numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub slots: u64,
    pub transmissions: u64,
    pub receptions: u64,
    pub colors_used: u64,
    pub done: u64,
    /// FNV-1a over the per-node colors (`u64::MAX` for an undecided node).
    pub color_hash: u64,
}

impl Digest {
    pub fn of(summary: &RunSummary) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut used = std::collections::BTreeSet::new();
        let mut done = 0u64;
        for c in &summary.colors {
            let word = match c {
                Some(c) => {
                    used.insert(*c);
                    done += 1;
                    *c as u64
                }
                None => u64::MAX,
            };
            for b in word.to_le_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        Digest {
            slots: summary.slots,
            transmissions: summary.transmissions,
            receptions: summary.receptions,
            colors_used: used.len() as u64,
            done,
            color_hash: hash,
        }
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Digest {{ slots: {}, transmissions: {}, receptions: {}, colors_used: {}, done: {}, color_hash: 0x{:016x} }}",
            self.slots, self.transmissions, self.receptions, self.colors_used, self.done, self.color_hash
        )
    }
}

/// Checks one run: the coloring is proper on the decided nodes, complete
/// when `complete` is required, and equal to the pinned digest when the
/// instance seed has one. Returns a description of every failed check.
pub fn check_run(
    workload: &str,
    seed: u64,
    graph: &UnitDiskGraph,
    summary: &RunSummary,
    complete: bool,
) -> (Digest, Vec<String>) {
    let digest = Digest::of(summary);
    let mut errors = Vec::new();
    if complete && digest.done < summary.colors.len() as u64 {
        errors.push(format!("coloring incomplete after {} slots", summary.slots));
    }
    if let Some((u, v)) = api::same_color_neighbors(graph, &summary.colors) {
        errors.push(format!("neighbors {u} and {v} decided the same color"));
    }
    if let Some(want) = pinned(workload, seed) {
        if want != digest {
            errors.push(format!("digest mismatch: got {digest}, pinned {want}"));
        }
    }
    (digest, errors)
}

pub fn pinned(workload: &str, seed: u64) -> Option<Digest> {
    PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{FULL, SWEEP};

    fn summary(colors: Vec<Option<usize>>) -> RunSummary {
        RunSummary {
            slots: 10,
            transmissions: 5,
            receptions: 3,
            colors,
            max_latency: None,
        }
    }

    #[test]
    fn digest_mismatch_on_a_pinned_seed_is_an_error() {
        let empty = api::unit_disk_graph(Vec::new());
        assert!(pinned(FULL, 1000).is_some());
        let (_, errors) = check_run(FULL, 1000, &empty, &summary(Vec::new()), false);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("digest mismatch"));
        // An unpinned seed is checked for validity only.
        let (_, errors) = check_run(SWEEP, 999_999, &empty, &summary(Vec::new()), false);
        assert!(errors.is_empty());
    }

    #[test]
    fn neighbors_sharing_a_color_fail_even_when_capped() {
        let g = api::unit_disk_graph(vec![api::Point::new(0.0, 0.0), api::Point::new(0.5, 0.0)]);
        let (_, errors) = check_run(SWEEP, 7, &g, &summary(vec![Some(2), Some(2)]), false);
        assert_eq!(errors, ["neighbors 0 and 1 decided the same color"]);
        let (d, errors) = check_run(SWEEP, 7, &g, &summary(vec![Some(2), None]), false);
        assert!(errors.is_empty());
        assert_eq!((d.colors_used, d.done), (1, 1));
        let (_, errors) = check_run(SWEEP, 7, &g, &summary(vec![Some(2), None]), true);
        assert_eq!(errors, ["coloring incomplete after 10 slots"]);
    }
}
