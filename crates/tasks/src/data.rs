//! Synthetic dataset generators.
//!
//! All three tasks share a latent "topic cluster" structure over the
//! content vocabulary: tokens `2..vocab` are split into
//! [`TaskSpec::clusters`] equal groups. Relations between clusters
//! (same / opposite / unrelated, or degree of overlap) define the
//! labels, giving tiny encoders a genuinely learnable signal with the
//! same output structure as the paper's tasks.

use rand::Rng;

use crate::error::TaskError;

/// Token id reserved for the `[CLS]` marker.
pub const CLS: usize = 0;
/// Token id reserved for the `[SEP]` marker.
pub const SEP: usize = 1;
/// First content token id.
pub const FIRST_CONTENT: usize = 2;

/// Which synthetic task a dataset belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// MNLI-like 3-way natural-language inference (metric: accuracy).
    Nli,
    /// STS-B-like graded similarity (metric: Spearman).
    Sts,
    /// SQuAD-like span extraction (metric: token F1).
    Span,
}

impl TaskKind {
    /// The paper task this synthetic stands in for.
    pub fn paper_name(&self) -> &'static str {
        match self {
            TaskKind::Nli => "MNLI",
            TaskKind::Sts => "STS-B",
            TaskKind::Span => "SQuAD v1.1",
        }
    }
}

/// Gold label of one example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// NLI class: 0 = entailment, 1 = contradiction, 2 = neutral.
    Class(usize),
    /// Similarity score in `[0, 5]`.
    Score(f32),
    /// Answer span `[start, end]` (inclusive token positions).
    Span {
        /// First answer position.
        start: usize,
        /// Last answer position (inclusive).
        end: usize,
    },
}

impl Label {
    /// The NLI class this label carries.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::LabelKindMismatch`] for non-class labels.
    pub fn as_class(&self) -> Result<usize, TaskError> {
        match *self {
            Label::Class(c) => Ok(c),
            _ => Err(TaskError::LabelKindMismatch),
        }
    }

    /// The similarity score this label carries.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::LabelKindMismatch`] for non-score labels.
    pub fn as_score(&self) -> Result<f32, TaskError> {
        match *self {
            Label::Score(s) => Ok(s),
            _ => Err(TaskError::LabelKindMismatch),
        }
    }

    /// The `(start, end)` answer span this label carries.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::LabelKindMismatch`] for non-span labels.
    pub fn as_span(&self) -> Result<(usize, usize), TaskError> {
        match *self {
            Label::Span { start, end } => Ok((start, end)),
            _ => Err(TaskError::LabelKindMismatch),
        }
    }
}

/// One tokenized example.
#[derive(Debug, Clone, PartialEq)]
pub struct Example {
    /// Token ids, starting with `[CLS]`.
    pub ids: Vec<usize>,
    /// Segment ids (0 = first sentence, 1 = second).
    pub type_ids: Vec<usize>,
    /// Gold label.
    pub label: Label,
}

/// Generation parameters shared by the three tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Model vocabulary size (content tokens are `2..vocab`).
    pub vocab: usize,
    /// Number of latent topic clusters (must be even and ≥ 4).
    pub clusters: usize,
    /// Tokens per sentence side.
    pub sentence_len: usize,
    /// Probability that each content token is replaced by a uniformly
    /// random content token *after* the label is fixed. Noise keeps
    /// labels valid but dilutes the evidence, so models operate with
    /// realistic (non-saturated) margins — which is what makes them
    /// sensitive to quantization, as real GLUE models are.
    pub noise: f32,
}

impl TaskSpec {
    /// A spec sized for the tiny trainable models: 6 clusters, 5 tokens
    /// per side, no noise.
    pub fn small(vocab: usize) -> Self {
        TaskSpec { vocab, clusters: 6, sentence_len: 5, noise: 0.0 }
    }

    /// Returns the spec with token-replacement noise.
    pub fn with_noise(mut self, noise: f32) -> Self {
        self.noise = noise;
        self
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError::InvalidParameter`] for inconsistent fields.
    pub fn validate(&self) -> Result<(), TaskError> {
        if self.clusters < 4 || !self.clusters.is_multiple_of(2) {
            return Err(TaskError::InvalidParameter { name: "clusters" });
        }
        if self.sentence_len == 0 {
            return Err(TaskError::InvalidParameter { name: "sentence_len" });
        }
        if self.content_tokens() < self.clusters * 2 {
            return Err(TaskError::InvalidParameter { name: "vocab" });
        }
        if !(0.0..=1.0).contains(&self.noise) {
            return Err(TaskError::InvalidParameter { name: "noise" });
        }
        Ok(())
    }

    /// Replaces each element with a random content token with
    /// probability `self.noise`. `forbidden` tokens are never produced
    /// (used by the span task to avoid forging answer tokens).
    fn corrupt(&self, rng: &mut impl Rng, tokens: &mut [usize], forbidden: Option<usize>) {
        if self.noise <= 0.0 {
            return;
        }
        for t in tokens.iter_mut() {
            if rng.gen::<f32>() < self.noise {
                loop {
                    let candidate = FIRST_CONTENT + rng.gen_range(0..self.content_tokens());
                    if Some(candidate) != forbidden {
                        *t = candidate;
                        break;
                    }
                }
            }
        }
    }

    /// Number of content tokens.
    pub fn content_tokens(&self) -> usize {
        self.vocab.saturating_sub(FIRST_CONTENT)
    }

    /// Tokens per cluster.
    pub fn cluster_size(&self) -> usize {
        self.content_tokens() / self.clusters
    }

    /// Total sequence length produced by the pair tasks:
    /// `[CLS] a… [SEP] b…`.
    #[cfg(test)]
    fn pair_len(&self) -> usize {
        2 + 2 * self.sentence_len
    }

    /// Samples a token from cluster `c`.
    fn sample_from_cluster(&self, rng: &mut impl Rng, c: usize) -> usize {
        let k = self.cluster_size();
        FIRST_CONTENT + c * k + rng.gen_range(0..k)
    }

    /// The cluster a token belongs to (content tokens only).
    #[cfg(test)]
    fn cluster_of(&self, token: usize) -> Option<usize> {
        if token < FIRST_CONTENT {
            return None;
        }
        let c = (token - FIRST_CONTENT) / self.cluster_size();
        (c < self.clusters).then_some(c)
    }
}

/// Generates an MNLI-like dataset: premise from cluster `c`;
/// entailment pairs it with the same cluster, contradiction with the
/// "opposite" cluster (`c + clusters/2`), neutral with an unrelated
/// one. Labels are balanced.
///
/// # Errors
///
/// Propagates [`TaskSpec::validate`] failures and rejects `n == 0`.
pub fn nli(spec: &TaskSpec, n: usize, rng: &mut impl Rng) -> Result<Vec<Example>, TaskError> {
    spec.validate()?;
    if n == 0 {
        return Err(TaskError::InvalidParameter { name: "n" });
    }
    let half = spec.clusters / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let label = i % 3;
        let c = rng.gen_range(0..spec.clusters);
        let hyp_cluster = match label {
            0 => c,
            1 => (c + half) % spec.clusters,
            _ => {
                // Unrelated: neither same nor opposite.
                let mut other = rng.gen_range(0..spec.clusters);
                while other == c || other == (c + half) % spec.clusters {
                    other = rng.gen_range(0..spec.clusters);
                }
                other
            }
        };
        let mut premise: Vec<usize> =
            (0..spec.sentence_len).map(|_| spec.sample_from_cluster(rng, c)).collect();
        let mut hypothesis: Vec<usize> =
            (0..spec.sentence_len).map(|_| spec.sample_from_cluster(rng, hyp_cluster)).collect();
        spec.corrupt(rng, &mut premise, None);
        spec.corrupt(rng, &mut hypothesis, None);
        out.push(pair_example(&premise, &hypothesis, Label::Class(label)));
    }
    Ok(out)
}

/// Generates an STS-B-like dataset: the second sentence shares `m` of
/// its tokens' clusters with the first; the gold score is
/// `5 · m / sentence_len`.
///
/// # Errors
///
/// Propagates [`TaskSpec::validate`] failures and rejects `n == 0`.
pub fn sts(spec: &TaskSpec, n: usize, rng: &mut impl Rng) -> Result<Vec<Example>, TaskError> {
    spec.validate()?;
    if n == 0 {
        return Err(TaskError::InvalidParameter { name: "n" });
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let c = rng.gen_range(0..spec.clusters);
        let m = i % (spec.sentence_len + 1); // 0..=len shared positions
        let a: Vec<usize> =
            (0..spec.sentence_len).map(|_| spec.sample_from_cluster(rng, c)).collect();
        let b: Vec<usize> = (0..spec.sentence_len)
            .map(|j| {
                if j < m {
                    spec.sample_from_cluster(rng, c)
                } else {
                    // Draw from a different cluster.
                    let mut other = rng.gen_range(0..spec.clusters);
                    while other == c {
                        other = rng.gen_range(0..spec.clusters);
                    }
                    spec.sample_from_cluster(rng, other)
                }
            })
            .collect();
        let score = 5.0 * m as f32 / spec.sentence_len as f32;
        let mut a = a;
        let mut b = b;
        spec.corrupt(rng, &mut a, None);
        spec.corrupt(rng, &mut b, None);
        out.push(pair_example(&a, &b, Label::Score(score)));
    }
    Ok(out)
}

/// Generates a SQuAD-like dataset. The sequence is
/// `[CLS] q [SEP] context…` where `q` is a content token; the answer is
/// the contiguous run of `q` placed inside a context of tokens from
/// other clusters. The label is the run's position range.
///
/// # Errors
///
/// Propagates [`TaskSpec::validate`] failures and rejects `n == 0`.
pub fn span(spec: &TaskSpec, n: usize, rng: &mut impl Rng) -> Result<Vec<Example>, TaskError> {
    spec.validate()?;
    if n == 0 {
        return Err(TaskError::InvalidParameter { name: "n" });
    }
    let context_len = 2 * spec.sentence_len;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let answer_cluster = rng.gen_range(0..spec.clusters);
        let q = spec.sample_from_cluster(rng, answer_cluster);
        let run_len = rng.gen_range(1..=2.min(context_len));
        let run_start = rng.gen_range(0..=context_len - run_len);
        let mut context = Vec::with_capacity(context_len);
        for j in 0..context_len {
            if (run_start..run_start + run_len).contains(&j) {
                context.push(q);
            } else {
                // Filler from any other cluster.
                let mut other = rng.gen_range(0..spec.clusters);
                while other == answer_cluster {
                    other = rng.gen_range(0..spec.clusters);
                }
                context.push(spec.sample_from_cluster(rng, other));
            }
        }
        // Corrupt filler positions only, never forging the answer token.
        let run = run_start..run_start + run_len;
        let mut fillers: Vec<usize> =
            context.iter().enumerate().filter(|(j, _)| !run.contains(j)).map(|(_, &t)| t).collect();
        spec.corrupt(rng, &mut fillers, Some(q));
        let mut fill_iter = fillers.into_iter();
        for (j, slot) in context.iter_mut().enumerate() {
            if !run.contains(&j) {
                *slot = fill_iter.next().expect("filler count matches");
            }
        }
        let mut ids = vec![CLS, q, SEP];
        let offset = ids.len();
        ids.extend(&context);
        let type_ids = vec![0; 3].into_iter().chain(vec![1; context_len]).collect();
        out.push(Example {
            ids,
            type_ids,
            label: Label::Span { start: offset + run_start, end: offset + run_start + run_len - 1 },
        });
    }
    Ok(out)
}

fn pair_example(a: &[usize], b: &[usize], label: Label) -> Example {
    let mut ids = vec![CLS];
    ids.extend(a);
    ids.push(SEP);
    ids.extend(b);
    let mut type_ids = vec![0; 2 + a.len()];
    type_ids.extend(vec![1; b.len()]);
    Example { ids, type_ids, label }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> TaskSpec {
        TaskSpec::small(62) // 60 content tokens, 6 clusters of 10
    }

    #[test]
    fn spec_validation() {
        assert!(spec().validate().is_ok());
        assert!(TaskSpec { vocab: 62, clusters: 5, sentence_len: 5, noise: 0.0 }
            .validate()
            .is_err());
        assert!(TaskSpec { vocab: 62, clusters: 2, sentence_len: 5, noise: 0.0 }
            .validate()
            .is_err());
        assert!(TaskSpec { vocab: 62, clusters: 6, sentence_len: 0, noise: 0.0 }
            .validate()
            .is_err());
        assert!(TaskSpec { vocab: 10, clusters: 6, sentence_len: 5, noise: 0.0 }
            .validate()
            .is_err());
        assert!(TaskSpec::small(62).with_noise(1.5).validate().is_err());
        assert!(TaskSpec::small(62).with_noise(0.3).validate().is_ok());
    }

    #[test]
    fn nli_labels_are_balanced_and_consistent() -> Result<(), TaskError> {
        let s = spec();
        let data = nli(&s, 99, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(data.len(), 99);
        let mut counts = [0usize; 3];
        for ex in &data {
            let c = ex.label.as_class()?;
            counts[c] += 1;
            assert_eq!(ex.ids.len(), s.pair_len());
            assert_eq!(ex.ids[0], CLS);
            assert_eq!(ex.ids[1 + s.sentence_len], SEP);
            // Check the latent rule holds.
            let prem_cluster = s.cluster_of(ex.ids[1]).unwrap();
            let hyp_cluster = s.cluster_of(ex.ids[2 + s.sentence_len]).unwrap();
            match c {
                0 => assert_eq!(hyp_cluster, prem_cluster),
                1 => assert_eq!(hyp_cluster, (prem_cluster + 3) % 6),
                _ => {
                    assert_ne!(hyp_cluster, prem_cluster);
                    assert_ne!(hyp_cluster, (prem_cluster + 3) % 6);
                }
            }
        }
        assert_eq!(counts, [33, 33, 33]);
        Ok(())
    }

    #[test]
    fn nli_premise_tokens_come_from_one_cluster() {
        let s = spec();
        let data = nli(&s, 30, &mut StdRng::seed_from_u64(2)).unwrap();
        for ex in data {
            let clusters: Vec<usize> =
                ex.ids[1..1 + s.sentence_len].iter().map(|&t| s.cluster_of(t).unwrap()).collect();
            assert!(clusters.iter().all(|&c| c == clusters[0]));
        }
    }

    #[test]
    fn sts_scores_span_full_range() -> Result<(), TaskError> {
        let s = spec();
        let data = sts(&s, 60, &mut StdRng::seed_from_u64(3)).unwrap();
        let scores: Vec<f32> =
            data.iter().map(|ex| ex.label.as_score()).collect::<Result<_, _>>()?;
        assert!(scores.contains(&0.0));
        assert!(scores.contains(&5.0));
        assert!(scores.iter().all(|&v| (0.0..=5.0).contains(&v)));
        Ok(())
    }

    #[test]
    fn sts_overlap_matches_score() -> Result<(), TaskError> {
        let s = spec();
        let data = sts(&s, 30, &mut StdRng::seed_from_u64(4)).unwrap();
        for ex in data {
            let score = ex.label.as_score()?;
            let a_cluster = s.cluster_of(ex.ids[1]).unwrap();
            let b = &ex.ids[2 + s.sentence_len..];
            let shared = b.iter().filter(|&&t| s.cluster_of(t) == Some(a_cluster)).count();
            let expected = 5.0 * shared as f32 / s.sentence_len as f32;
            assert!((score - expected).abs() < 1e-6);
        }
        Ok(())
    }

    #[test]
    fn span_answers_point_at_question_token_runs() -> Result<(), TaskError> {
        let s = spec();
        let data = span(&s, 40, &mut StdRng::seed_from_u64(5)).unwrap();
        for ex in data {
            let (start, end) = ex.label.as_span()?;
            let q = ex.ids[1];
            assert!(start <= end && end < ex.ids.len());
            for pos in start..=end {
                assert_eq!(ex.ids[pos], q, "answer span must repeat the question token");
            }
            // No stray q outside the span within the context.
            for (pos, &t) in ex.ids.iter().enumerate().skip(3) {
                if !(start..=end).contains(&pos) {
                    assert_ne!(t, q, "unexpected answer token at {pos}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let s = spec();
        let a = nli(&s, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = nli(&s, 10, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_examples_rejected() {
        let s = spec();
        assert!(nli(&s, 0, &mut StdRng::seed_from_u64(1)).is_err());
        assert!(sts(&s, 0, &mut StdRng::seed_from_u64(1)).is_err());
        assert!(span(&s, 0, &mut StdRng::seed_from_u64(1)).is_err());
    }

    #[test]
    fn noise_preserves_labels_and_shapes() -> Result<(), TaskError> {
        let s = spec().with_noise(0.4);
        let data = nli(&s, 30, &mut StdRng::seed_from_u64(21)).unwrap();
        for ex in &data {
            assert_eq!(ex.ids.len(), s.pair_len());
            assert!(matches!(ex.label, Label::Class(_)));
        }
        // Spans still point at runs of the question token under noise.
        let spans = span(&s, 30, &mut StdRng::seed_from_u64(22)).unwrap();
        for ex in spans {
            let (start, end) = ex.label.as_span()?;
            let q = ex.ids[1];
            for pos in start..=end {
                assert_eq!(ex.ids[pos], q);
            }
            for (pos, &t) in ex.ids.iter().enumerate().skip(3) {
                if !(start..=end).contains(&pos) {
                    assert_ne!(t, q, "noise forged an answer token at {pos}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn noise_actually_corrupts_tokens() {
        let clean = spec();
        let noisy = clean.with_noise(0.5);
        // Same seed: noisy generation must diverge from clean for NLI.
        let a = nli(&clean, 20, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = nli(&noisy, 20, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_ne!(a, b);
        // With noise, some premise tokens leave the premise cluster.
        let mixed = b.iter().any(|ex| {
            let c0 = noisy.cluster_of(ex.ids[1]);
            ex.ids[1..1 + noisy.sentence_len].iter().any(|&t| noisy.cluster_of(t) != c0)
        });
        assert!(mixed);
    }

    #[test]
    fn paper_names() {
        assert_eq!(TaskKind::Nli.paper_name(), "MNLI");
        assert_eq!(TaskKind::Sts.paper_name(), "STS-B");
        assert_eq!(TaskKind::Span.paper_name(), "SQuAD v1.1");
    }
}
