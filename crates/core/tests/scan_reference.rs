//! Property tests pinning the three scalar reference implementations
//! everything else rests on to one another: `DictView::scan` ≡ per-entry
//! `DictView::matches` ≡ `DictView::scan_lanes` regrouped per sample.
//!
//! All three implement the `entry_diff` fold; the oracles pin the
//! entry-bitmap index to `scan`, so these must agree on *any* dictionary bytes — including
//! shapes `from_clustering` never produces (all-zero-mask entries that
//! match everything, corrupted key ⊄ mask words that reject everything) —
//! and on any input width (stride tails, narrow inputs, empty inputs).

use bolt_bitpack::Mask;
use bolt_core::DictView;
use proptest::prelude::*;

/// Deterministic splitmix64 stream so every array is reproducible from
/// the case's single seed.
fn words(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Builds an input `Mask` whose backing words are exactly `input_words`.
fn mask_from_words(input_words: &[u64]) -> Mask {
    let mut mask = Mask::zeros(input_words.len() * 64);
    for (w, &word) in input_words.iter().enumerate() {
        for b in 0..64 {
            if word >> b & 1 == 1 {
                mask.set(w * 64 + b, true);
            }
        }
    }
    mask
}

/// One randomized dictionary: sparse masks, keys under the masks, plus the
/// optional hostile shapes the references must handle identically.
struct Case {
    stride: usize,
    mask: Vec<u64>,
    key: Vec<u64>,
}

impl Case {
    fn build(seed: u64, stride: usize, n_entries: usize, zero_mask: bool, corrupt: bool) -> Self {
        let n = n_entries * stride;
        // Quarter-density masks so entries actually match sometimes.
        let mask: Vec<u64> = words(seed, n)
            .iter()
            .zip(&words(seed ^ 0xA5A5, n))
            .map(|(a, b)| a & b)
            .collect();
        let mut mask = mask;
        let mut key: Vec<u64> = words(seed ^ 0x5A5A, n)
            .iter()
            .zip(&mask)
            .map(|(k, m)| k & m)
            .collect();
        if zero_mask && n_entries > 0 {
            // Entry 0 becomes all-zero mask/key: matches every input.
            for w in 0..stride {
                mask[w] = 0;
                key[w] = 0;
            }
        }
        if corrupt && n_entries > 1 {
            // Entry 1 gets a key bit outside its mask: rejects every input.
            let w = stride; // first word of entry 1
            let outside = !mask[w];
            key[w] |= outside & outside.wrapping_neg(); // lowest zero-mask bit
        }
        Self { stride, mask, key }
    }

    fn view<'a>(&'a self, offsets: &'a [u32]) -> DictView<'a> {
        DictView::new(self.stride * 64, &self.mask, &self.key, &[], offsets)
    }
}

fn scan_ids(view: &DictView<'_>, input: &Mask) -> Vec<u32> {
    let mut out = Vec::new();
    view.scan(input, |id| out.push(id));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The scan reports, in ascending order, exactly the entries the
    /// per-entry test accepts, on randomized dictionaries and inputs of
    /// every width from empty through full stride.
    #[test]
    fn scan_agrees_with_per_entry_matches_on_random_dictionaries(
        seed in any::<u64>(),
        stride in 1usize..=5,
        n_entries in 0usize..=13,
        zero_mask in any::<bool>(),
        corrupt in any::<bool>(),
        input_sel in 0usize..=6,
    ) {
        let case = Case::build(seed, stride, n_entries, zero_mask, corrupt);
        let offsets = vec![0u32; n_entries + 1];
        let view = case.view(&offsets);

        // Inputs: random at every width 0..=stride, or an entry's own key
        // (a guaranteed match when that entry's key ⊆ mask).
        let input_words = if input_sel <= stride {
            words(seed ^ 0xF00D, input_sel)
        } else if n_entries > 0 {
            let e = (seed as usize) % n_entries;
            case.key[e * stride..(e + 1) * stride].to_vec()
        } else {
            Vec::new()
        };
        let input = mask_from_words(&input_words);

        let reference = scan_ids(&view, &input);
        prop_assert!(reference.windows(2).all(|w| w[0] < w[1]), "ascending entry order");

        // `matches` (the per-entry test) agrees with scan membership,
        // including on inputs narrower than the dictionary.
        for id in 0..n_entries as u32 {
            prop_assert_eq!(view.matches(id, &input), reference.contains(&id));
        }

        // Semantics of the hostile shapes, pinned explicitly.
        if zero_mask && n_entries > 0 {
            prop_assert!(reference.contains(&0), "all-zero-mask entry matches everything");
        }
        if corrupt && n_entries > 1 {
            prop_assert!(!reference.contains(&1), "key outside mask rejects everything");
        }
    }

    /// The retained flat entry-major reference (`DictView::scan_lanes`)
    /// regroups per sample into exactly the single-sample scalar scan, on
    /// the same hostile shapes and on every sample count from 0 through 17.
    #[test]
    fn lane_scan_regroups_into_the_per_sample_scan(
        seed in any::<u64>(),
        stride in 1usize..=5,
        n_entries in 0usize..=13,
        n_samples in 0usize..=17,
        zero_mask in any::<bool>(),
        corrupt in any::<bool>(),
    ) {
        let case = Case::build(seed, stride, n_entries, zero_mask, corrupt);
        let offsets = vec![0u32; n_entries + 1];
        let view = case.view(&offsets);

        // Lane-pack the batch; every third sample is an entry's own key so
        // matches actually occur.
        let mut lanes = vec![0u64; stride * n_samples];
        for b in 0..n_samples {
            let input = if n_entries > 0 && b % 3 == 0 {
                case.key[(b % n_entries) * stride..][..stride].to_vec()
            } else {
                words(seed ^ (b as u64).wrapping_mul(0x1234_5679), stride)
            };
            for (w, &word) in input.iter().enumerate() {
                lanes[w * n_samples + b] = word;
            }
        }

        let mut diffs = vec![0u64; n_samples];
        let mut matched = Vec::new();
        let mut hits: Vec<(u32, Vec<u32>)> = Vec::new();
        view.scan_lanes(&lanes, n_samples, &mut diffs, &mut matched, |id, m| {
            hits.push((id, m.to_vec()));
        });
        for b in 0..n_samples {
            let sample_words: Vec<u64> =
                (0..stride).map(|w| lanes[w * n_samples + b]).collect();
            let input = mask_from_words(&sample_words);
            let expected = scan_ids(&view, &input);
            let got: Vec<u32> = hits
                .iter()
                .filter(|(_, m)| m.contains(&(b as u32)))
                .map(|(id, _)| *id)
                .collect();
            prop_assert_eq!(got, expected, "sample {} (seed {seed})", b);
        }
    }
}
