//! Feature flags — the knobs behind the paper's Section 6.5 ablation.

/// Which of Clydesdale's techniques are enabled. Defaults to all on (the
/// system as shipped); the Figure 9 ablation turns them off one at a time.
/// The `vectorized`/`zone_skipping`/`dict_predicates`/`simd_compaction`
/// flags ablate execution-only layers individually (DESIGN.md §10);
/// results are identical with any of them off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// Columnar scans: read only the query's columns from CIF. Off = read
    /// every fact column (the paper measured a 3.4x average slowdown).
    pub columnar: bool,
    /// Block iteration (B-CIF): probe over column arrays. Off = materialize
    /// one row at a time (paper: ~1.2x slowdown).
    pub block_iteration: bool,
    /// Multi-threaded map tasks with shared hash tables and one task per
    /// node. Off = single-threaded tasks, one per slot, each building its
    /// own copy of the dimension hash tables (paper: ~2.4x slowdown, up to
    /// 4.5x on flight 4).
    pub multithreading: bool,
    /// JVM reuse: share hash tables across consecutive tasks on a node.
    /// Meaningful only when `multithreading` is on; off forces rebuilds.
    pub jvm_reuse: bool,
    /// Vectorized probe kernel: selection vectors over column slices and
    /// dense group-id aggregation. Off = the scalar row-at-a-time probe
    /// loop over the same blocks. Results are identical either way.
    pub vectorized: bool,
    /// Zone-map block skipping: CIF row groups whose per-column min/max
    /// cannot satisfy the query's predicates are skipped without decoding.
    /// Results are identical either way.
    pub zone_skipping: bool,
    /// Dictionary-encoded predicate compilation: string predicates on
    /// dimension columns are compiled to `u32` code compares against a
    /// sorted per-column dictionary during the hash-table build (equality
    /// via code lookup, ranges via code ranges). Off = plain string
    /// compares per dimension row.
    pub dict_predicates: bool,
    /// Branch-free (SIMD-friendly) selection-vector compaction in the
    /// vectorized kernel. Off = the branchy compaction loop.
    pub simd_compaction: bool,
}

impl Default for Features {
    fn default() -> Features {
        Features {
            columnar: true,
            block_iteration: true,
            multithreading: true,
            jvm_reuse: true,
            vectorized: true,
            zone_skipping: true,
            dict_predicates: true,
            simd_compaction: true,
        }
    }
}

impl Features {
    pub fn all_on() -> Features {
        Features::default()
    }

    /// Stable identity string for plan fingerprints (result-cache code
    /// tokens): one character per feature bit, in declaration order.
    /// Execution-only bits participate too — results are invariant across
    /// them, so including them can only cost a cache miss, never serve a
    /// wrong answer.
    pub fn token_bits(&self) -> String {
        [
            self.columnar,
            self.block_iteration,
            self.multithreading,
            self.jvm_reuse,
            self.vectorized,
            self.zone_skipping,
            self.dict_predicates,
            self.simd_compaction,
        ]
        .iter()
        .map(|b| if *b { '1' } else { '0' })
        .collect()
    }

    pub fn without_columnar() -> Features {
        Features {
            columnar: false,
            ..Features::default()
        }
    }

    pub fn without_block_iteration() -> Features {
        Features {
            block_iteration: false,
            ..Features::default()
        }
    }

    pub fn without_multithreading() -> Features {
        Features {
            multithreading: false,
            jvm_reuse: false,
            ..Features::default()
        }
    }

    pub fn without_vectorized() -> Features {
        Features {
            vectorized: false,
            ..Features::default()
        }
    }

    pub fn without_zone_skipping() -> Features {
        Features {
            zone_skipping: false,
            ..Features::default()
        }
    }

    pub fn without_dict_predicates() -> Features {
        Features {
            dict_predicates: false,
            ..Features::default()
        }
    }

    pub fn without_simd_compaction() -> Features {
        Features {
            simd_compaction: false,
            ..Features::default()
        }
    }

    /// The single-flag-off ablation points, paired with their labels.
    pub fn ablations() -> Vec<(&'static str, Features)> {
        vec![
            ("no-columnar", Features::without_columnar()),
            ("no-block-iteration", Features::without_block_iteration()),
            ("no-multithreading", Features::without_multithreading()),
            ("no-vectorized", Features::without_vectorized()),
            ("no-zone-skipping", Features::without_zone_skipping()),
            ("no-dict-predicates", Features::without_dict_predicates()),
            ("no-simd-compaction", Features::without_simd_compaction()),
        ]
    }

    /// Human-readable label used by the ablation harness.
    pub fn label(&self) -> &'static str {
        if *self == Features::default() {
            return "all-on";
        }
        for (name, f) in Features::ablations() {
            if *self == f {
                return name;
            }
        }
        "custom"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_all_on() {
        let f = Features::default();
        assert!(f.columnar && f.block_iteration && f.multithreading && f.jvm_reuse);
        assert!(f.vectorized && f.zone_skipping);
        assert!(f.dict_predicates && f.simd_compaction);
        assert_eq!(f.label(), "all-on");
    }

    #[test]
    fn ablation_constructors() {
        assert!(!Features::without_columnar().columnar);
        assert!(!Features::without_block_iteration().block_iteration);
        let mt = Features::without_multithreading();
        assert!(!mt.multithreading && !mt.jvm_reuse);
        assert_eq!(mt.label(), "no-multithreading");
        assert_eq!(Features::without_columnar().label(), "no-columnar");
        assert!(!Features::without_vectorized().vectorized);
        assert_eq!(Features::without_vectorized().label(), "no-vectorized");
        assert!(!Features::without_zone_skipping().zone_skipping);
        assert_eq!(
            Features::without_zone_skipping().label(),
            "no-zone-skipping"
        );
        assert!(!Features::without_dict_predicates().dict_predicates);
        assert!(!Features::without_simd_compaction().simd_compaction);
        assert_eq!(
            Features::without_simd_compaction().label(),
            "no-simd-compaction"
        );
    }

    #[test]
    fn every_ablation_turns_off_exactly_its_flag_and_labels_round_trip() {
        for (name, f) in Features::ablations() {
            assert_eq!(f.label(), name);
            assert_ne!(f, Features::default(), "{name} must differ from default");
        }
        let custom = Features {
            columnar: false,
            vectorized: false,
            ..Features::default()
        };
        assert_eq!(custom.label(), "custom");
    }
}
