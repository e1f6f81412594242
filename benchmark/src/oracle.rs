//! The correctness oracle: every response is compared, bit for bit,
//! with the FP32 reference forward on the decoded model.
//!
//! GOBO's promise is that decoding is plug-in compatible, so whatever
//! path a request takes — HTTP, scheduler, router, node, canary — the
//! tensor it returns must equal `CompressedModel::decode()` followed by
//! `TransformerModel::encode`. HTTP bodies are checked against the
//! expected `"hidden":{…},"pooled":[…]}` suffix rendered with the
//! server's own `serve::json`; frames and in-process responses are
//! checked with `f32::to_bits`.

use gobo::format::CompressedModel;
use gobo_serve::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{ModelSpec, POOL, SEQ_LEN};

/// Reference output of one pooled sequence.
#[derive(Debug, Clone)]
pub struct Expected {
    pub ids: Vec<usize>,
    pub hidden: Vec<f32>,
    pub dims: [usize; 2],
    pub pooled: Option<Vec<f32>>,
    /// `"hidden":{…},"pooled":…}` — the tail of a correct HTTP body.
    pub json_suffix: Vec<u8>,
}

/// Reference outputs of the whole request pool of one model.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub model: &'static str,
    pub pool: Vec<Expected>,
}

/// The `--seed`-driven request pool: `POOL` sequences of `SEQ_LEN` ids.
pub fn request_pool(seed: u64, vocab: usize) -> Vec<Vec<usize>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_01D5);
    (0..POOL).map(|_| (0..SEQ_LEN).map(|_| rng.gen_range(1..vocab)).collect()).collect()
}

/// The two tensor fields an encode body ends with, built with the same
/// `serve::json` calls as the front doors.
pub fn tensor_fields(
    hidden: &[f32],
    dims: [usize; 2],
    pooled: Option<&[f32]>,
) -> Vec<(&'static str, Json)> {
    vec![
        (
            "hidden",
            Json::obj(vec![("dims", Json::usize_array(&dims)), ("data", Json::f32_array(hidden))]),
        ),
        ("pooled", pooled.map_or(Json::Null, Json::f32_array)),
    ]
}

/// Renders the tail every correct HTTP encode body ends with.
pub fn json_suffix(hidden: &[f32], dims: [usize; 2], pooled: Option<&[f32]>) -> Vec<u8> {
    let body = Json::obj(tensor_fields(hidden, dims, pooled)).to_string();
    // Drop the opening brace: the served body has other fields first.
    body.into_bytes().split_off(1)
}

impl Oracle {
    /// Runs the FP32 reference forward over the pool.
    pub fn build(
        spec: &ModelSpec,
        compressed: &CompressedModel,
        seed: u64,
    ) -> Result<Oracle, String> {
        let reference = compressed.decode().map_err(|e| format!("oracle decode: {e}"))?;
        let mut pool = Vec::with_capacity(POOL);
        for ids in request_pool(seed, spec.vocab) {
            let out = reference.encode(&ids, &[]).map_err(|e| format!("oracle encode: {e}"))?;
            let dims = match out.hidden.dims() {
                &[a, b] => [a, b],
                _ => return Err("oracle: hidden state is not rank 2".into()),
            };
            let hidden = out.hidden.into_vec();
            let pooled = out.pooled.map(|t| t.into_vec());
            let json_suffix = json_suffix(&hidden, dims, pooled.as_deref());
            pool.push(Expected { ids, hidden, dims, pooled, json_suffix });
        }
        Ok(Oracle { model: spec.name, pool })
    }

    /// `true` when an HTTP body carries exactly the expected tensors.
    pub fn http_body_matches(&self, idx: usize, body: &[u8]) -> bool {
        let suffix = &self.pool[idx].json_suffix;
        body.len() > suffix.len()
            && body.ends_with(suffix)
            && body[body.len() - suffix.len() - 1] == b','
    }

    /// `true` when decoded tensors equal the reference bit for bit.
    pub fn tensors_match(
        &self,
        idx: usize,
        hidden: &[f32],
        dims: [usize; 2],
        pooled: Option<&[f32]>,
    ) -> bool {
        let want = &self.pool[idx];
        let same = |a: &[f32], b: &[f32]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        dims == want.dims
            && same(hidden, &want.hidden)
            && match (pooled, want.pooled.as_deref()) {
                (Some(a), Some(b)) => same(a, b),
                (None, None) => true,
                _ => false,
            }
    }

    /// Proves the oracle can fail: flips one mantissa bit of one
    /// reference value and requires both checks to notice. Run before
    /// every measurement.
    pub fn self_test(&self) -> Result<(), String> {
        let want = &self.pool[0];
        let served_body = |hidden: &[f32]| {
            let mut body = b"{\"model\":\"m\",".to_vec();
            body.extend_from_slice(&json_suffix(hidden, want.dims, want.pooled.as_deref()));
            body
        };
        if !self.http_body_matches(0, &served_body(&want.hidden))
            || !self.tensors_match(0, &want.hidden, want.dims, want.pooled.as_deref())
        {
            return Err("oracle self-test: the reference does not match itself".into());
        }
        let mut flipped = want.hidden.clone();
        let mid = flipped.len() / 2;
        flipped[mid] = f32::from_bits(flipped[mid].to_bits() ^ 1);
        if self.http_body_matches(0, &served_body(&flipped))
            || self.tensors_match(0, &flipped, want.dims, want.pooled.as_deref())
        {
            return Err("oracle self-test: a flipped mantissa bit went unnoticed".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::build_artifact;
    use crate::spec::SMALL;

    fn tiny_spec() -> ModelSpec {
        ModelSpec { layers: 1, hidden: 16, heads: 2, vocab: 64, max_position: 16, ..SMALL }
    }

    #[test]
    fn flipped_mantissa_bit_is_caught() {
        let spec = tiny_spec();
        let artifact = build_artifact(&spec).unwrap();
        let oracle = Oracle::build(&spec, &artifact.compressed, 7).unwrap();
        oracle.self_test().unwrap();
        // And directly: one bit in the pooled vector.
        let want = &oracle.pool[3];
        let mut pooled = want.pooled.clone().unwrap();
        pooled[0] = f32::from_bits(pooled[0].to_bits() ^ 1);
        assert!(oracle.tensors_match(3, &want.hidden, want.dims, want.pooled.as_deref()));
        assert!(!oracle.tensors_match(3, &want.hidden, want.dims, Some(&pooled)));
        assert!(!oracle.tensors_match(4, &want.hidden, want.dims, want.pooled.as_deref()));
    }

    #[test]
    fn pool_depends_only_on_the_seed() {
        assert_eq!(request_pool(11, 1024), request_pool(11, 1024));
        assert_ne!(request_pool(11, 1024), request_pool(12, 1024));
        assert!(request_pool(11, 1024).iter().all(|ids| ids.len() == SEQ_LEN));
    }
}
