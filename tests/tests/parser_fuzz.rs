//! Corruption that reaches the field parsers, and what bounds it.
//!
//! Every binary format here is sealed with a CRC-32, so a corruption
//! test that only flips bytes is rejected by the checksum before a
//! single field parser runs. This binary goes past the seal. It holds
//!
//! * the **crafted reproducers**: correctly sealed inputs whose declared
//!   counts promise bytes that are not there (a 28-byte layer, a 42-byte
//!   model file, a rank-4 tensor whose element count overflows), alone
//!   and wrapped in every enclosing format; and
//! * a **seeded re-sealing mutator**: flip / truncate / splice, then
//!   recompute every CRC covering the edit (layer → archive entry →
//!   file; frame), over the layer, archive, `.gobom`, model file and wire
//!   frame at index widths 1–8, plus raw mutations of the two text
//!   parsers (`http::parse_request`, `json::parse`).
//!
//! The property, for every input: a typed `Err` or an `Ok` — never a
//! panic or abort; peak allocation during the parse at most
//! `16 × input length + 1 MiB` (measured by the counting allocator
//! below, in debug and `--release`); and an `Ok(x)` is a fixed point,
//! `parse(write(x)) == Ok(x)`. Byte equality with the mutated input
//! cannot be asked once pad and reserved bytes are re-sealed; a stable
//! parse can.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gobo::format::{reseal_compressed, CompressedModel, FormatError};
use gobo::pipeline::{quantize_model, QuantizeOptions};
use gobo_model::config::ModelConfig;
use gobo_model::io::{load_model_partial, save_model};
use gobo_model::{ModelError, TransformerModel};
use gobo_proto::codec::{put_f32, put_len16, put_len32, put_u32, reseal, seal, CodecError};
use gobo_proto::frame::{
    read_frame, write_frame, EncodeErrFrame, EncodeOkFrame, EncodeRequestFrame,
    EncodeResponseFrame, Frame, HeartbeatAckFrame,
};
use gobo_proto::integrity::Crc32;
use gobo_quant::container::{reseal_archive, ModelArchive};
use gobo_quant::{QuantError, QuantizedLayer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Counting allocator: peak live bytes of the current thread
// ---------------------------------------------------------------------------

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get().saturating_add(bytes));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrank(bytes: usize) {
    // Saturating: a block may be freed by another thread than its owner.
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

/// The system allocator with a per-thread live/peak byte count, so tests
/// running in parallel do not see each other's allocations.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only const-
// initialised, destructor-free thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `alloc`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Old and new block counted live together: the worst case of
            // a moving reallocation.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak number of bytes it had
/// live at once, above what was live when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get).saturating_sub(base))
}

/// The allocation bound every parse of `len` input bytes must stay under.
fn bound(len: usize) -> usize {
    16 * len + (1 << 20)
}

fn hex(bytes: &[u8]) -> String {
    let shown = &bytes[..bytes.len().min(96)];
    let mut out: String = shown.iter().map(|b| format!("{b:02x}")).collect();
    if shown.len() < bytes.len() {
        out.push_str(&format!("… ({} bytes)", bytes.len()));
    }
    out
}

/// Parses `input` under the property: no panic, bounded allocation.
fn bounded<T, E>(
    what: &str,
    input: &[u8],
    parse: impl FnOnce(&[u8]) -> Result<T, E>,
) -> Result<T, E> {
    let outcome = catch_unwind(AssertUnwindSafe(|| measure(|| parse(input))));
    let Ok((result, peak)) = outcome else {
        panic!("{what}: the parser panicked on {}", hex(input));
    };
    assert!(
        peak <= bound(input.len()),
        "{what}: {peak} bytes live at peak for {} input bytes (bound {}) on {}",
        input.len(),
        bound(input.len()),
        hex(input),
    );
    result
}

// ---------------------------------------------------------------------------
// Hand-built containers around a crafted section
// ---------------------------------------------------------------------------

/// A sealed archive holding `layer` (any bytes) under the name `x`.
fn archive_around(layer: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GOBa");
    out.extend_from_slice(&[2, 0, 0, 0]);
    put_len32(&mut out, 1);
    seal(&mut out, 0);
    let entry = out.len();
    put_len16(&mut out, 1);
    out.extend_from_slice(b"x");
    put_len32(&mut out, layer.len());
    out.extend_from_slice(layer);
    seal(&mut out, entry);
    out
}

/// A sealed `.gobom` around a skeleton section and an archive section.
fn gobom_around(skeleton: &[u8], archive: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GOBM");
    out.extend_from_slice(&[2, 0, 0, 0]);
    put_len32(&mut out, skeleton.len());
    out.extend_from_slice(skeleton);
    put_len32(&mut out, archive.len());
    out.extend_from_slice(archive);
    seal(&mut out, 0);
    out
}

fn tiny_model(seed: u64) -> TransformerModel {
    let config = ModelConfig::tiny("Fuzz", 1, 32, 2, 24, 8).expect("config");
    TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).expect("model")
}

fn compressed(bits: u8) -> CompressedModel {
    let model = tiny_model(u64::from(bits));
    let options = QuantizeOptions::gobo(bits).expect("options");
    CompressedModel::new(&model, quantize_model(&model, &options).expect("quantize").archive)
}

// ---------------------------------------------------------------------------
// The crafted reproducers
// ---------------------------------------------------------------------------

/// 28 bytes, valid CRC: `total = outliers = u32::MAX`, one centroid.
/// Before the count rule this reserved 16 GiB for outlier positions and
/// aborted the process.
fn crafted_layer() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GOBq");
    out.extend_from_slice(&[2, 0, 1, 0]); // version, method, bits, pad
    put_u32(&mut out, u32::MAX); // total
    put_u32(&mut out, u32::MAX); // outliers
    put_u32(&mut out, 1); // codebook_len
    put_f32(&mut out, 0.0);
    seal(&mut out, 0);
    assert_eq!(out.len(), 28);
    out
}

/// 33 bytes, valid CRC: two 1-bit weights over the centroid table
/// `[1, -1]`. Sorting the table while parsing would read index 0 as -1
/// where the writer meant 1.
fn crafted_descending_codebook() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GOBq");
    out.extend_from_slice(&[2, 0, 1, 0]); // version, method, bits, pad
    put_u32(&mut out, 2); // total
    put_u32(&mut out, 0); // outliers
    put_u32(&mut out, 2); // codebook_len
    put_f32(&mut out, 1.0);
    put_f32(&mut out, -1.0);
    out.push(0b10); // indices 0, 1
    seal(&mut out, 0);
    assert_eq!(out.len(), 33);
    out
}

/// 42 bytes: a model-file header and nothing else, declaring `layers`
/// encoder layers of width `width`. Before the count rule the 2 000 ×
/// 65 536 instance returned `Ok` after allocating 1.1 GB of auxiliary
/// tensors; larger fields aborted.
fn crafted_model_header(layers: u32, width: u32) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"GOBm");
    out.extend_from_slice(&[1, 0, 0, 0]); // version, flags, pad
    put_len16(&mut out, 0); // name
    for field in [layers, width, width, 1, 1, 1, 0] {
        put_u32(&mut out, field);
    }
    put_u32(&mut out, 0); // tensor count
    assert_eq!(out.len(), 42);
    out
}

/// A complete, valid model file with one more tensor appended whose
/// four dims are `dims` and which carries no data.
fn model_with_rank4_tensor(dims: [u32; 4]) -> Vec<u8> {
    let model = tiny_model(1);
    let mut out = save_model(&model);
    let count_at = 8 + 2 + model.config().name.len() + 7 * 4;
    let count = u32::from_le_bytes(out[count_at..count_at + 4].try_into().expect("4 bytes"));
    out[count_at..count_at + 4].copy_from_slice(&(count + 1).to_le_bytes());
    put_len16(&mut out, 1);
    out.extend_from_slice(b"t");
    out.push(4);
    for d in dims {
        put_u32(&mut out, d);
    }
    out
}

#[test]
fn crafted_layer_is_refused_bounded_at_every_level() {
    let layer = crafted_layer();
    let err = bounded("layer", &layer, QuantizedLayer::from_bytes).unwrap_err();
    assert!(matches!(err, QuantError::CorruptPayload { .. }), "{err}");

    let archive = archive_around(&layer);
    let err = bounded("archive", &archive, ModelArchive::from_bytes).unwrap_err();
    assert!(matches!(err, QuantError::CorruptPayload { .. }), "{err}");

    let skeleton = save_model(&compressed(3).skeleton);
    let gobom = gobom_around(&skeleton, &archive);
    let err = bounded("gobom", &gobom, CompressedModel::from_bytes).unwrap_err();
    assert!(matches!(err, FormatError::Quant(QuantError::CorruptPayload { .. })), "{err}");
}

#[test]
fn a_descending_codebook_is_refused_not_sorted_under_its_indices() {
    let refused = QuantError::CorruptPayload { what: "codebook not ascending" };
    let layer = crafted_descending_codebook();
    assert_eq!(bounded("layer", &layer, QuantizedLayer::from_bytes).unwrap_err(), refused);
    let archive = archive_around(&layer);
    assert_eq!(bounded("archive", &archive, ModelArchive::from_bytes).unwrap_err(), refused);
}

#[test]
fn crafted_model_header_is_refused_bounded_alone_and_as_a_skeleton() {
    for (layers, width) in [(2_000, 65_536), (u32::MAX, u32::MAX), (u32::MAX, 1), (1, u32::MAX)] {
        let file = crafted_model_header(layers, width);
        let what = format!("model header {layers} x {width}");
        let err = bounded(&what, &file, load_model_partial).unwrap_err();
        assert!(matches!(err, ModelError::InvalidInput { .. }), "{what}: {err}");

        let gobom = gobom_around(&file, &ModelArchive::new().to_bytes());
        let err = bounded(&what, &gobom, CompressedModel::from_bytes).unwrap_err();
        assert!(
            matches!(err, FormatError::Model(ModelError::InvalidInput { .. })),
            "{what}: {err}"
        );
    }
}

/// The cheapest geometry per layer (width 1), padded with exactly the
/// bytes its auxiliary tensors would need: the skeleton is built, and
/// every layer of it was paid for in input bytes — parameters *and*
/// per-tensor framing, or 10 000 layers would cost 54x the file.
#[test]
fn a_deep_narrow_geometry_pays_for_every_layer_it_declares() {
    let layers = 10_000;
    let aux_bytes = layers * (10 * 4 + 10 * 18) + 2 * (4 + 18);
    let mut file = crafted_model_header(10_000, 1);
    file.resize(42 + aux_bytes - 1, 0);
    let err = bounded("deep narrow, one byte short", &file, load_model_partial).unwrap_err();
    assert_eq!(err, ModelError::InvalidInput { what: CodecError::Truncated.what() });
    file.push(0);
    let err = bounded("deep narrow", &file, load_model_partial).unwrap_err();
    assert_eq!(err, ModelError::InvalidInput { what: CodecError::Trailing.what() });
}

#[test]
fn tensor_element_counts_are_a_checked_fold() {
    // 65 536^4 overflows the element count (a debug build used to panic
    // in `.product()`); 2^30 · 2^30 · 4 fits the count and overflows the
    // byte length.
    for dims in [[65_536; 4], [1 << 30, 1 << 30, 4, 1], [u32::MAX; 4]] {
        let file = model_with_rank4_tensor(dims);
        let err = bounded("rank-4 tensor", &file, load_model_partial).unwrap_err();
        assert!(matches!(err, ModelError::InvalidInput { .. }), "{dims:?}: {err}");
    }
}

#[test]
fn a_name_the_format_cannot_carry_is_refused_where_it_is_created() {
    let mut config = ModelConfig::tiny("ok", 1, 8, 2, 8, 4).expect("config");
    config.name = "n".repeat(usize::from(u16::MAX));
    assert!(config.validate().is_ok());
    config.name.push('n');
    assert_eq!(config.validate(), Err(ModelError::InvalidConfig { name: "name" }));
    // So no model — and therefore no `save_model` call — can hold it.
    assert!(TransformerModel::skeleton(config).is_err());
}

// ---------------------------------------------------------------------------
// The seeded re-sealing mutator
// ---------------------------------------------------------------------------

/// One to three edits: bit flips, boundary bytes, boundary `u32`s (where
/// the counts and lengths live), truncation, and splices that copy,
/// insert or delete a short run.
fn mutate(rng: &mut StdRng, seed: &[u8]) -> Vec<u8> {
    let mut b = seed.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        if b.is_empty() {
            break;
        }
        let at = rng.gen_range(0..b.len());
        match rng.gen_range(0..6u8) {
            0 => b[at] ^= rng.gen_range(1..=255u8),
            1 => b[at] = [0x00, 0x01, 0x7F, 0x80, 0xFF][rng.gen_range(0..5usize)],
            2 => {
                let v =
                    [0, 1, 0x0001_0000, 1 << 31, u32::MAX - 3, u32::MAX][rng.gen_range(0..6usize)];
                for (dst, src) in b[at..].iter_mut().zip(v.to_le_bytes()) {
                    *dst = src;
                }
            }
            3 => b.truncate(at),
            4 => {
                let from = rng.gen_range(0..b.len());
                let n = rng.gen_range(1..=16usize).min(b.len() - from).min(b.len() - at);
                let run = b[from..from + n].to_vec();
                b[at..at + n].copy_from_slice(&run);
            }
            _ => {
                let n = rng.gen_range(1..=8usize).min(b.len() - at);
                if rng.gen_range(0..2u8) == 0 {
                    b.drain(at..at + n);
                } else {
                    let run = b[at..at + n].to_vec();
                    b.splice(at..at, run);
                }
            }
        }
    }
    b
}

/// How a storm of mutations ended.
#[derive(Debug, Default)]
struct Tally {
    accepted: usize,
    /// Rejected by a checksum: the mutation never reached a field parser.
    sealed_out: usize,
    /// Rejected by a field parser.
    rejected: usize,
}

/// One format under test: how to parse it, write it back, re-seal it
/// after an edit, and compare two parsed values.
struct Format<T> {
    name: &'static str,
    parse: fn(&[u8]) -> Result<T, String>,
    write: fn(&T) -> Vec<u8>,
    reseal: fn(&mut [u8]),
    same: fn(&T, &T) -> bool,
}

impl<T> Format<T> {
    /// `rounds` seeded mutations of `seeds`, each re-sealed and held to
    /// the property.
    fn storm(&self, seeds: &[Vec<u8>], rounds: usize, rng_seed: u64) -> Tally {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut tally = Tally::default();
        for seed in seeds {
            let intact = bounded(self.name, seed, self.parse).expect("the seed input parses");
            assert!((self.same)(
                &intact,
                &(self.parse)(&(self.write)(&intact)).expect("round trip")
            ));
        }
        for round in 0..rounds {
            let mut input = mutate(&mut rng, &seeds[round % seeds.len()]);
            (self.reseal)(&mut input);
            let what = format!("{} (seed {rng_seed}, round {round})", self.name);
            match bounded(&what, &input, self.parse) {
                Err(e) if e.contains("checksum") || e.contains("crc") => tally.sealed_out += 1,
                Err(_) => tally.rejected += 1,
                Ok(x) => {
                    tally.accepted += 1;
                    let rewritten = (self.write)(&x);
                    let again = bounded(&what, &rewritten, self.parse);
                    assert!(
                        again.as_ref().is_ok_and(|y| (self.same)(&x, y)),
                        "{what}: the accepted parse of {} is not a fixed point",
                        hex(&input),
                    );
                }
            }
        }
        tally
    }
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

const LAYER: Format<QuantizedLayer> = Format {
    name: "layer",
    parse: |b| QuantizedLayer::from_bytes(b).map_err(text),
    write: |l| l.to_bytes().to_vec(),
    reseal,
    same: |a, b| a == b,
};

const ARCHIVE: Format<ModelArchive> = Format {
    name: "archive",
    parse: |b| ModelArchive::from_bytes(b).map_err(text),
    write: |a| a.to_bytes().to_vec(),
    reseal: reseal_archive,
    same: |a, b| a == b,
};

const GOBOM: Format<CompressedModel> = Format {
    name: "gobom",
    parse: |b| CompressedModel::from_bytes(b).map_err(text),
    write: CompressedModel::to_bytes,
    reseal: reseal_compressed,
    same: |a, b| a.skeleton == b.skeleton && a.archive == b.archive,
};

/// The model file carries no checksum: mutations reach its parser raw.
const MODEL_FILE: Format<TransformerModel> = Format {
    name: "model file",
    parse: |b| load_model_partial(b).map_err(text),
    write: save_model,
    reseal: |_| {},
    same: |a, b| a == b,
};

/// The caller's payload cap bounds a frame body while it is still on the
/// wire; the fuzz run passes a small one, as a cautious caller would.
const FRAME_CAP: u32 = 64 << 10;

/// Recomputes an edited frame's CRC over `version|kind|payload`, taking
/// the last four bytes as the checksum whatever the length field says.
fn reseal_frame(bytes: &mut [u8]) {
    let Some(crc_at) = bytes.len().checked_sub(4).filter(|&n| n >= 10) else {
        return;
    };
    let mut crc = Crc32::default();
    crc.update(&bytes[4..6]);
    crc.update(&bytes[10..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.finish().to_le_bytes());
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, frame).expect("write to a Vec");
    out
}

const FRAME: Format<Frame> = Format {
    name: "frame",
    parse: |mut b| read_frame(&mut b, FRAME_CAP).map_err(text)?.ok_or("clean eof".to_owned()),
    write: frame_bytes,
    reseal: reseal_frame,
    // Hidden states may hold NaN, which is never `==` itself: compare
    // the bytes the frames encode to.
    same: |a, b| frame_bytes(a) == frame_bytes(b),
};

fn sample_frames() -> Vec<Vec<u8>> {
    let ok = EncodeOkFrame {
        model: "Fuzz".to_owned(),
        bits: 3,
        dims: vec![3, 4],
        hidden: (0..12u8).map(|i| f32::from(i) * 0.25 - 1.0).collect(),
        pooled: Some(vec![0.5, -0.5, f32::MIN_POSITIVE, -0.0]),
        batch_size: 4,
        queue_us: 120,
        compute_us: 3_400,
    };
    let err = EncodeErrFrame { code: "queue_full".to_owned(), message: "at capacity".to_owned() };
    [
        Frame::EncodeRequest(EncodeRequestFrame {
            id: 42,
            model: "Fuzz".to_owned(),
            bits: 3,
            deadline_ms: 5_000,
            ids: vec![101, 7, 9, 102],
            type_ids: vec![0, 0, 1, 1],
        }),
        Frame::EncodeResponse(EncodeResponseFrame { id: 42, result: Ok(ok) }),
        Frame::EncodeResponse(EncodeResponseFrame { id: 7, result: Err(err) }),
        Frame::Heartbeat { seq: 99 },
        Frame::HeartbeatAck(HeartbeatAckFrame { seq: 99, queue_depth: 17, draining: false }),
        Frame::Drain,
        Frame::DrainAck,
    ]
    .iter()
    .map(frame_bytes)
    .collect()
}

/// A sealed format's storm must mostly get past its checksums — that is
/// the point of re-sealing — and must exercise both outcomes.
fn assert_reached_the_parsers(name: &str, tally: &Tally) {
    let total = tally.accepted + tally.rejected + tally.sealed_out;
    assert!(
        tally.sealed_out * 4 < total,
        "{name}: {tally:?} — most mutations should get past the checksums"
    );
    assert!(tally.rejected > 0 && tally.accepted > 0, "{name}: {tally:?}");
}

#[test]
fn resealed_mutations_of_layer_archive_and_gobom_at_every_width() {
    for bits in 1u8..=8 {
        let model = compressed(bits);
        let layers: Vec<Vec<u8>> =
            model.archive.iter().map(|(_, layer)| layer.to_bytes().to_vec()).collect();
        let seed = 0xF0 + u64::from(bits);
        assert_reached_the_parsers("layer", &LAYER.storm(&layers, 400, seed));
        let archive = [model.archive.to_bytes().to_vec()];
        assert_reached_the_parsers("archive", &ARCHIVE.storm(&archive, 150, seed));
        assert_reached_the_parsers("gobom", &GOBOM.storm(&[model.to_bytes()], 150, seed));
    }
}

#[test]
fn mutations_of_the_model_file() {
    let full = save_model(&tiny_model(5));
    let skeleton = save_model(&compressed(4).skeleton);
    let tally = MODEL_FILE.storm(&[full, skeleton], 1_500, 0xF1);
    assert!(tally.rejected > 0 && tally.accepted > 0 && tally.sealed_out == 0, "{tally:?}");
}

#[test]
fn resealed_mutations_of_every_frame_kind() {
    assert_reached_the_parsers("frame", &FRAME.storm(&sample_frames(), 3_000, 0xF2));
}

#[test]
fn raw_mutations_of_the_text_parsers() {
    const MAX_BODY: usize = 64 << 10;
    let body = r#"{"model":"Fuzz","bits":3,"ids":[101,7,9,102],"type_ids":[0,0,1,1],"deadline_ms":250.5,"tags":{"a":[true,false,null],"b":"x\né"}}"#;
    let request = format!(
        "POST /v1/encode HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    );
    // A second seed the parser refuses whole — a chunked body behind two
    // lengths that disagree — so mutations start from its refusal paths.
    let chunked = format!(
        "POST /v1/encode HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: {}\r\n\
         Transfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
        body.len(),
        body.len()
    );
    let unmutated = gobo_serve::http::parse_request(&mut chunked.as_bytes(), MAX_BODY);
    assert!(unmutated.is_err(), "the chunked seed parsed: {unmutated:?}");
    let seeds = [request.as_bytes(), chunked.as_bytes()];
    let mut rng = StdRng::seed_from_u64(0xF3);
    let (mut parsed, mut refused) = (0usize, 0usize);
    for round in 0..3_000 {
        let input = mutate(&mut rng, seeds[round % seeds.len()]);
        let what = format!("http (round {round})");
        match bounded(&what, &input, |mut b| gobo_serve::http::parse_request(&mut b, MAX_BODY)) {
            Ok(_) => parsed += 1,
            Err(_) => refused += 1,
        }

        let input = mutate(&mut rng, body.as_bytes());
        let input = String::from_utf8_lossy(&input).into_owned();
        let what = format!("json (round {round})");
        if let Ok(value) = bounded(&what, input.as_bytes(), |_| gobo_serve::json::parse(&input)) {
            let again = gobo_serve::json::parse(&value.to_string());
            assert_eq!(again.as_ref(), Ok(&value), "{what}: not a fixed point: {input}");
        }
    }
    assert!(parsed > 0 && refused > 0, "http: {parsed} parsed, {refused} refused");
}
