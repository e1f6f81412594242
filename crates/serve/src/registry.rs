//! The model registry: named, LRU-bounded, *versioned* cache of
//! compressed-resident models.
//!
//! A `.gobom` container is loaded from disk (or handed over in memory)
//! and becomes a [`QuantizedEngine`] under a *name/bits* slot — the
//! same logical model quantized at different widths serves side by
//! side. A served model is its container: nothing the archive carries
//! is decoded — the engine multiplies against its packed FC layers and
//! gathers rows from its packed embedding tables — and the container's
//! skeleton, as stored, holds the rest in FP32. Residency is bounded by
//! a budget on the bytes that representation really occupies — no more
//! than the container's own size — with LRU eviction; handles already
//! held by in-flight batches stay valid after eviction because entries
//! are reference counted (`Arc`).
//!
//! # Revisions and the swap protocol
//!
//! Every entry carries a monotone per-slot revision (`name@bits@rN`),
//! so a redeploy never mutates a served model in place:
//!
//! 1. [`ModelRegistry::publish`] builds the incoming container's engine
//!    **outside** the registry lock, fires the `registry.swap`
//!    failpoint *before any mutation* (an injected rejection leaves the
//!    registry untouched), and installs the new revision as the slot's
//!    **canary** (or directly as **active** when the slot was empty).
//! 2. The canary is *one value* in its slot — the revision, its ticket
//!    counter and its verdict window ([`crate::lifecycle`]), created
//!    together by the publish and dropped together by whatever ends the
//!    trial. A batch takes the lock twice: `resolve` hands it the
//!    active revision and, on the trial's canary tickets, the canary;
//!    `report` takes back what it observed, **named by the canary
//!    revision it was resolved beside**, and records, judges and
//!    applies — promote flips the active pointer, roll back removes
//!    the canary — in that one critical section. A report whose
//!    revision is no longer the slot's canary is dropped, so a verdict
//!    can only land on the revision it measured.
//!    [`ModelRegistry::promote`] / [`ModelRegistry::rollback`] are the
//!    same two transitions for an operator.
//! 3. The replaced revision moves to the **draining** list. Readers
//!    never block: in-flight batches finish on the `Arc` handle they
//!    already resolved. A draining revision is **retired** (dropped,
//!    firing the `registry.retire` failpoint) only once its strong
//!    count shows no handle outside the registry — the sweep runs on
//!    every registry operation, so retirement trails the last in-flight
//!    batch by at most one lookup.
//!
//! Budget eviction applies to *active* revisions only (canary and
//! draining revisions are transient by construction); the resident-byte
//! gauge still charges all three, so memory accounting stays honest
//! while a swap is in flight.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use gobo_sanitize::{SanMutex, SanMutexGuard};

use gobo::format::CompressedModel;

use crate::engine::QuantizedEngine;
use crate::error::ServeError;
use crate::lifecycle::{CanaryPolicy, VerdictWindow, WindowVerdict};
use crate::metrics::Metrics;

/// Cache key: model name plus the (maximum) quantization width of its
/// archive. One key addresses one *slot*, whose revisions share it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Registered model name.
    pub name: String,
    /// Bit width (the widest layer in the archive; 32 for a raw FP32
    /// container with an empty archive).
    pub bits: u8,
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}b", self.name, self.bits)
    }
}

/// Lifecycle state of one model revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevState {
    /// Serving the slot's main traffic share.
    Active,
    /// Incoming revision serving the canary traffic slice.
    Canary,
    /// Replaced; alive only for in-flight batches that still hold it.
    Draining,
    /// Drained and dropped; remembered for `/v1/models`.
    Retired,
    /// Evicted under the byte budget; the container must be re-loaded.
    Evicted,
}

impl RevState {
    /// Stable lower-case label used by `/v1/models`.
    pub fn as_str(&self) -> &'static str {
        match self {
            RevState::Active => "active",
            RevState::Canary => "canary",
            RevState::Draining => "draining",
            RevState::Retired => "retired",
            RevState::Evicted => "evicted",
        }
    }
}

impl std::fmt::Display for RevState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A resident model revision plus its accounting.
#[derive(Debug)]
pub struct ModelEntry {
    /// The slot key.
    pub key: ModelKey,
    /// Monotone per-slot revision number (1 for the first install).
    pub rev: u64,
    /// The compute-on-compressed engine, shared with in-flight batches:
    /// every archived tensor is read straight from its packed indices;
    /// its model, the container's skeleton, holds the rest.
    pub engine: Arc<QuantizedEngine>,
    /// Bytes this revision occupies in memory, charged against the
    /// registry budget: [`QuantizedEngine::resident_bytes`].
    pub resident_bytes: usize,
    /// Serialized size of the compressed container.
    pub compressed_bytes: usize,
    /// Number of quantized layers in the archive.
    pub quantized_layers: usize,
}

/// Registry residency limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Budget on resident bytes (each revision's
    /// [`ModelEntry::resident_bytes`]: FP32 tensors it holds plus its
    /// packed layers — what it costs in RAM, not its decoded size). The
    /// most recently inserted model is always kept, even if it alone
    /// exceeds the budget; everything beyond the budget is evicted
    /// least-recently-used first.
    pub max_bytes: usize,
    /// Hard cap on resident models.
    pub max_models: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig { max_bytes: 1 << 30, max_models: 16 }
    }
}

/// Sizes remembered for a model after it was evicted.
#[derive(Debug, Clone, Copy)]
struct EvictedInfo {
    rev: u64,
    compressed_bytes: usize,
    quantized_layers: usize,
}

/// Retired revisions remembered for `/v1/models` (newest kept).
const RETIRED_MEMORY: usize = 64;

/// One row of [`ModelRegistry::status`]: a model revision the registry
/// knows about, resident or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelStatus {
    /// The slot key.
    pub key: ModelKey,
    /// The revision number.
    pub rev: u64,
    /// Lifecycle state of this revision.
    pub state: RevState,
    /// Whether the revision currently occupies memory.
    pub resident: bool,
    /// Bytes this revision occupies in memory (0 when not resident).
    pub resident_bytes: usize,
    /// Serialized size of the compressed container.
    pub compressed_bytes: usize,
    /// Number of quantized layers in the archive.
    pub quantized_layers: usize,
}

/// A revision on trial: the entry and the trial it is judged by, made
/// together at publish and dropped together at the verdict.
struct Canary {
    entry: Arc<ModelEntry>,
    trial: VerdictWindow,
}

/// Everything the registry holds about one `name/bits` key.
#[derive(Default)]
struct Slot {
    /// The revision serving the slot's traffic; `None` once evicted.
    active: Option<Arc<ModelEntry>>,
    /// The incoming revision on trial beside it, at most one.
    canary: Option<Canary>,
    /// Last assigned revision (never reset, even across eviction, so a
    /// re-published model is distinguishable).
    last_rev: u64,
    /// Logical-clock stamp of the last hit.
    recency: u64,
    /// Sizes of the revision the LRU evicted, remembered so
    /// `/v1/models` can report it (cleared when the slot serves again).
    evicted: Option<EvictedInfo>,
}

#[derive(Default)]
struct Inner {
    slots: HashMap<ModelKey, Slot>,
    /// Replaced revisions waiting for their in-flight handles to drain.
    draining: Vec<Arc<ModelEntry>>,
    /// Recently retired revisions, remembered for `/v1/models`.
    retired: VecDeque<(ModelKey, u64)>,
    tick: u64,
}

impl Inner {
    /// Resident active revisions.
    fn active(&self) -> impl Iterator<Item = (&Slot, &Arc<ModelEntry>)> {
        self.slots.values().filter_map(|s| s.active.as_ref().map(|e| (s, e)))
    }

    /// Makes `entry` its slot's active revision, most recently used;
    /// the revision it replaces moves to draining.
    fn activate(&mut self, entry: Arc<ModelEntry>) {
        self.tick += 1;
        let slot = self.slots.entry(entry.key.clone()).or_default();
        slot.recency = self.tick;
        slot.evicted = None;
        self.draining.extend(slot.active.replace(entry));
    }

    /// Ends the slot's trial, if it has one: its canary becomes the
    /// active revision (`promote`) or moves to draining.
    fn end_trial(&mut self, key: &ModelKey, promote: bool) -> Option<Arc<ModelEntry>> {
        let canary = self.slots.get_mut(key)?.canary.take()?;
        if promote {
            self.activate(Arc::clone(&canary.entry));
        } else {
            self.draining.push(Arc::clone(&canary.entry));
        }
        Some(canary.entry)
    }

    /// The most recently used serving slot under `name` (any bits, or
    /// exactly `bits`), stamped as used now: its active revision and
    /// its canary, if one is on trial.
    fn touch(
        &mut self,
        name: &str,
        bits: Option<u8>,
    ) -> Result<(&Arc<ModelEntry>, Option<&mut Canary>), ServeError> {
        let slot = self
            .slots
            .iter_mut()
            .filter(|(k, s)| {
                s.active.is_some() && k.name == name && bits.is_none_or(|b| k.bits == b)
            })
            .max_by_key(|(_, s)| s.recency)
            .map(|(_, s)| s);
        let Some(Slot { active: Some(active), canary, recency, .. }) = slot else {
            return Err(ServeError::ModelNotFound { name: name.to_owned() });
        };
        self.tick += 1;
        *recency = self.tick;
        Ok((active, canary.as_mut()))
    }
}

/// What one batch runs on: see [`ModelRegistry::resolve`].
pub(crate) struct Resolved {
    /// The slot's active revision.
    pub active: Arc<ModelEntry>,
    /// Revision of the canary on trial in the slot, if any — the trial
    /// this batch reports to, whichever side it ran on.
    pub trial_rev: Option<u64>,
    /// That canary, iff this batch's ticket trials it.
    pub canary: Option<Arc<ModelEntry>>,
}

/// Thread-safe versioned model cache with LRU eviction under a byte
/// budget and an atomic active/canary/draining revision lifecycle.
pub struct ModelRegistry {
    config: RegistryConfig,
    metrics: Arc<Metrics>,
    inner: SanMutex<Inner>,
}

/// Everything [`ModelRegistry::insert`]/[`publish`] need that can be
/// computed *outside* the registry lock: the engine build dominates a
/// swap, so the lock is held only for pointer flips.
///
/// [`publish`]: ModelRegistry::publish
struct RevisionParts {
    key: ModelKey,
    engine: Arc<QuantizedEngine>,
    resident_bytes: usize,
    compressed_bytes: usize,
    quantized_layers: usize,
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new(config: RegistryConfig, metrics: Arc<Metrics>) -> Self {
        ModelRegistry {
            config,
            metrics,
            inner: SanMutex::new("serve.registry.inner", 40, Inner::default()),
        }
    }

    /// Locks the cache state, recovering from poisoning: every mutation
    /// of `Inner` is a sequence of individually-complete operations (a
    /// panic in between at worst loses a recency stamp or part of one
    /// verdict window), so a poisoned lock must not take the registry —
    /// and with it every model — out of service.
    fn lock_inner(&self) -> SanMutexGuard<'_, Inner> {
        self.inner.lock()
    }

    /// Loads a `.gobom` container from disk and registers it under
    /// `name` as the immediately-active revision. Returns the resident
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] for unreadable files and
    /// [`ServeError::Format`] for corrupt containers.
    pub fn load_file(&self, name: &str, path: &str) -> Result<Arc<ModelEntry>, ServeError> {
        self.insert(name, read_container(path)?)
    }

    /// Loads a `.gobom` container from disk and publishes it through
    /// the canary lifecycle ([`ModelRegistry::publish`]). The CRC is
    /// validated by the container parse *before* the registry is
    /// touched, so a corrupt file can never enter the lifecycle.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for unreadable files, [`ServeError::Format`]
    /// for corrupt containers, plus everything `publish` rejects.
    pub fn publish_file(
        &self,
        name: &str,
        path: &str,
    ) -> Result<(Arc<ModelEntry>, RevState), ServeError> {
        self.publish(name, read_container(path)?)
    }

    /// Builds the serving engine for `compressed`, outside the lock: its
    /// skeleton as stored, moved into the engine, beside its archive as
    /// stored.
    fn build_parts(
        &self,
        name: &str,
        compressed: CompressedModel,
    ) -> Result<RevisionParts, ServeError> {
        // Fails the engine build. Nothing here decodes, but the failpoint
        // catalog and the chaos labels name it `registry.decode`.
        gobo_fault::fail_point!(
            "registry.decode",
            ServeError::Internal("injected registry.decode fault")
        );
        let compressed_bytes = compressed.serialized_bytes();
        let CompressedModel { skeleton, archive } = compressed;
        let bits = archive.iter().map(|(_, l)| l.bits()).max().unwrap_or(32);
        let quantized_layers = archive.len();
        let engine = Arc::new(QuantizedEngine::over_archive(Arc::new(skeleton), archive)?);
        Ok(RevisionParts {
            key: ModelKey { name: name.to_owned(), bits },
            resident_bytes: engine.resident_bytes(),
            engine,
            compressed_bytes,
            quantized_layers,
        })
    }

    /// Assembles the entry under the lock, assigning the slot's next
    /// revision number.
    fn next_entry(inner: &mut Inner, parts: RevisionParts) -> Arc<ModelEntry> {
        let slot = inner.slots.entry(parts.key.clone()).or_default();
        slot.last_rev = slot.last_rev.saturating_add(1);
        Arc::new(ModelEntry {
            key: parts.key,
            rev: slot.last_rev,
            engine: parts.engine,
            resident_bytes: parts.resident_bytes,
            compressed_bytes: parts.compressed_bytes,
            quantized_layers: parts.quantized_layers,
        })
    }

    /// Builds the engine for `compressed` and registers it under `name`
    /// as the immediately-active revision — a prior active revision for the
    /// slot moves to draining — evicting LRU entries beyond the
    /// configured budget.
    ///
    /// # Errors
    ///
    /// Propagates engine-build failures ([`ServeError::Format`]).
    pub fn insert(
        &self,
        name: &str,
        compressed: CompressedModel,
    ) -> Result<Arc<ModelEntry>, ServeError> {
        let parts = self.build_parts(name, compressed)?;
        let mut inner = self.lock_inner();
        let entry = Self::next_entry(&mut inner, parts);
        inner.activate(Arc::clone(&entry));
        self.evict_beyond_budget(&mut inner, &entry.key);
        self.settle(&mut inner);
        Ok(entry)
    }

    /// Publishes a new revision of `name` through the canary lifecycle:
    /// the engine is built outside the lock, the `registry.swap`
    /// failpoint fires *before any mutation* (an injected rejection
    /// leaves the registry exactly as it was), and the revision is
    /// installed as the slot's canary, with a fresh trial — or directly
    /// as active when the slot had no active revision. A
    /// previously-pending canary for the slot is superseded: it moves
    /// to draining and its trial is dropped with it.
    ///
    /// # Errors
    ///
    /// Propagates engine-build failures and injected `registry.swap` /
    /// `registry.decode` faults; on any error the registry is
    /// untouched.
    pub fn publish(
        &self,
        name: &str,
        compressed: CompressedModel,
    ) -> Result<(Arc<ModelEntry>, RevState), ServeError> {
        let parts = self.build_parts(name, compressed)?;
        gobo_fault::fail_point!(
            "registry.swap",
            ServeError::Internal("injected registry.swap fault")
        );
        let mut inner = self.lock_inner();
        let entry = Self::next_entry(&mut inner, parts);
        let state = match inner.slots.get_mut(&entry.key).filter(|s| s.active.is_some()) {
            Some(slot) => {
                let trial = Canary { entry: Arc::clone(&entry), trial: VerdictWindow::default() };
                let superseded = slot.canary.replace(trial).map(|c| c.entry);
                inner.draining.extend(superseded);
                RevState::Canary
            }
            None => {
                inner.activate(Arc::clone(&entry));
                self.evict_beyond_budget(&mut inner, &entry.key);
                RevState::Active
            }
        };
        self.settle(&mut inner);
        Ok((entry, state))
    }

    /// Atomically flips the slot's canary to active, ending its trial.
    /// The replaced active revision moves to draining; in-flight
    /// batches finish on whichever revision they already resolved.
    /// Returns the newly active entry, or `None` when the slot has no
    /// canary.
    pub fn promote(&self, key: &ModelKey) -> Option<Arc<ModelEntry>> {
        let mut inner = self.lock_inner();
        let promoted = inner.end_trial(key, true)?;
        self.settle(&mut inner);
        Some(promoted)
    }

    /// Removes the slot's canary, ending its trial and moving it to
    /// draining; the active revision keeps serving untouched. Returns
    /// the rolled-back entry, or `None` when the slot has no canary.
    pub fn rollback(&self, key: &ModelKey) -> Option<Arc<ModelEntry>> {
        let mut inner = self.lock_inner();
        let rolled_back = inner.end_trial(key, false)?;
        self.settle(&mut inner);
        Some(rolled_back)
    }

    /// The slot's pending canary revision, if any.
    pub fn canary_for(&self, key: &ModelKey) -> Option<Arc<ModelEntry>> {
        let inner = self.lock_inner();
        inner.slots.get(key)?.canary.as_ref().map(|c| Arc::clone(&c.entry))
    }

    /// Looks a model up by name (any bits, most recently used wins) or
    /// by exact name/bits, bumping its recency. Only *active* revisions
    /// are returned — a batch that may trial a canary goes through
    /// `resolve` instead.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ModelNotFound`] when nothing matches.
    pub fn get(&self, name: &str, bits: Option<u8>) -> Result<Arc<ModelEntry>, ServeError> {
        let mut inner = self.lock_inner();
        let active = Arc::clone(inner.touch(name, bits)?.0);
        // Piggyback the retirement sweep on the hot path: it is a cheap
        // scan of a near-always-empty list, and it is exactly the
        // moment in-flight handles get dropped (batch dispatch).
        self.settle(&mut inner);
        Ok(active)
    }

    /// [`ModelRegistry::get`] for a batch about to run: when the slot
    /// has a canary on trial, the batch also takes one of the trial's
    /// tickets, which decides whether it runs on the canary. Whatever
    /// it observes goes back through [`ModelRegistry::report`], named
    /// by [`Resolved::trial_rev`].
    pub(crate) fn resolve(
        &self,
        name: &str,
        bits: Option<u8>,
        policy: &CanaryPolicy,
    ) -> Result<Resolved, ServeError> {
        let mut inner = self.lock_inner();
        let (active, canary) = inner.touch(name, bits)?;
        let resolved = Resolved {
            active: Arc::clone(active),
            trial_rev: canary.as_ref().map(|c| c.entry.rev),
            canary: canary.and_then(|c| c.trial.take_ticket(policy).then(|| Arc::clone(&c.entry))),
        };
        self.settle(&mut inner);
        Ok(resolved)
    }

    /// Reports what one batch observed to the trial of canary revision
    /// `rev` — its latency on the canary (`canary`) or beside it on the
    /// active revision, `None` for a failure — and applies the verdict,
    /// if that sample completes one, in the same critical section: a
    /// clean window promotes the canary, a regression or any canary
    /// failure rolls it back. A sample names the trial it measured:
    /// when `rev` is no longer the slot's canary (superseded, settled
    /// by another batch, evicted) it is dropped.
    pub(crate) fn report(
        &self,
        key: &ModelKey,
        rev: u64,
        policy: &CanaryPolicy,
        canary: bool,
        latency_us: Option<u64>,
    ) -> WindowVerdict {
        let mut inner = self.lock_inner();
        let trial = inner.slots.get_mut(key).and_then(|s| s.canary.as_mut());
        let Some(trial) = trial.filter(|c| c.entry.rev == rev) else {
            return WindowVerdict::Pending;
        };
        let verdict = trial.trial.record(policy, canary, latency_us);
        let counter = match verdict {
            WindowVerdict::Pending => return verdict,
            WindowVerdict::Clean => &self.metrics.canary_promotions,
            WindowVerdict::Regressed => &self.metrics.canary_rollbacks,
        };
        inner.end_trial(key, verdict == WindowVerdict::Clean);
        counter.fetch_add(1, Ordering::Relaxed);
        self.settle(&mut inner);
        verdict
    }

    /// Snapshot of the resident active entries, most recently used
    /// first.
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        let inner = self.lock_inner();
        let mut entries: Vec<(u64, Arc<ModelEntry>)> =
            inner.active().map(|(s, e)| (s.recency, Arc::clone(e))).collect();
        entries.sort_by_key(|(recency, _)| std::cmp::Reverse(*recency));
        entries.into_iter().map(|(_, e)| e).collect()
    }

    /// Status of every model revision the registry knows about — active
    /// revisions first (most recently used first), then canaries, then
    /// draining, then remembered retired revisions, then evicted slots.
    /// `GET /v1/models` reads this; no router does — a node's heartbeat
    /// ack carries only its queue depth and draining flag.
    pub fn status(&self) -> Vec<ModelStatus> {
        let inner = self.lock_inner();
        let row = |e: &Arc<ModelEntry>, state: RevState| ModelStatus {
            key: e.key.clone(),
            rev: e.rev,
            state,
            resident: true,
            resident_bytes: e.resident_bytes,
            compressed_bytes: e.compressed_bytes,
            quantized_layers: e.quantized_layers,
        };
        let by_key = |a: &ModelStatus, b: &ModelStatus| {
            (&a.key.name, a.key.bits).cmp(&(&b.key.name, b.key.bits))
        };
        let mut resident: Vec<(u64, ModelStatus)> =
            inner.active().map(|(s, e)| (s.recency, row(e, RevState::Active))).collect();
        resident.sort_by_key(|(recency, _)| std::cmp::Reverse(*recency));
        let mut out: Vec<ModelStatus> = resident.into_iter().map(|(_, s)| s).collect();
        let canaries = inner.slots.values().filter_map(|s| s.canary.as_ref());
        let mut canaries: Vec<ModelStatus> =
            canaries.map(|c| row(&c.entry, RevState::Canary)).collect();
        canaries.sort_by(by_key);
        out.extend(canaries);
        out.extend(inner.draining.iter().map(|e| row(e, RevState::Draining)));
        out.extend(inner.retired.iter().rev().map(|(k, rev)| ModelStatus {
            key: k.clone(),
            rev: *rev,
            state: RevState::Retired,
            resident: false,
            resident_bytes: 0,
            compressed_bytes: 0,
            quantized_layers: 0,
        }));
        let gone = inner.slots.iter().filter_map(|(k, s)| Some((k, s.evicted.as_ref()?)));
        let mut gone: Vec<ModelStatus> = gone
            .map(|(k, info)| ModelStatus {
                key: k.clone(),
                rev: info.rev,
                state: RevState::Evicted,
                resident: false,
                resident_bytes: 0,
                compressed_bytes: info.compressed_bytes,
                quantized_layers: info.quantized_layers,
            })
            .collect();
        gone.sort_by(by_key);
        out.extend(gone);
        out
    }

    /// Total bytes the registry's models occupy: active plus canary
    /// plus draining revisions, each at its
    /// [`ModelEntry::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        let inner = self.lock_inner();
        Self::memory_bytes(&inner)
    }

    /// Number of resident active models.
    pub fn len(&self) -> usize {
        self.lock_inner().active().count()
    }

    /// Returns `true` when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of revisions currently draining (replaced but still
    /// pinned by in-flight handles).
    pub fn draining_len(&self) -> usize {
        self.lock_inner().draining.len()
    }

    /// Runs a retirement sweep now: drops every draining revision whose
    /// refcount has drained, firing `registry.retire` per retirement.
    /// Sweeps also run on every registry mutation and lookup; this
    /// exists for callers that want retirement to be observed without
    /// traffic (shutdown checks, chaos assertions).
    pub fn sweep(&self) {
        self.settle(&mut self.lock_inner());
    }

    fn evict_beyond_budget(&self, inner: &mut Inner, keep: &ModelKey) {
        loop {
            let (count, total) = inner
                .active()
                .fold((0usize, 0usize), |(n, b), (_, e)| (n + 1, b + e.resident_bytes));
            let over = total > self.config.max_bytes || count > self.config.max_models;
            if !over || count <= 1 {
                return;
            }
            // Oldest serving slot other than the one just inserted.
            let victim = inner
                .slots
                .iter_mut()
                .filter(|(k, s)| *k != keep && s.active.is_some())
                .min_by_key(|(_, s)| s.recency);
            let Some((_, slot)) = victim else { return };
            slot.evicted = slot.active.take().map(|entry| EvictedInfo {
                rev: entry.rev,
                compressed_bytes: entry.compressed_bytes,
                quantized_layers: entry.quantized_layers,
            });
            // An orphaned canary cannot serve without its slot; drain
            // it, and its trial, with the eviction.
            inner.draining.extend(slot.canary.take().map(|c| c.entry));
            self.metrics.registry_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Closes every registry operation: retires what has drained and
    /// refreshes the gauges.
    fn settle(&self, inner: &mut Inner) {
        self.sweep_draining(inner);
        self.metrics.registry_models.store(inner.active().count() as u64, Ordering::Relaxed);
        self.metrics.registry_bytes.store(Self::memory_bytes(inner) as u64, Ordering::Relaxed);
        self.metrics.registry_draining.store(inner.draining.len() as u64, Ordering::Relaxed);
    }

    /// Retires every draining revision whose strong count shows no
    /// handle outside the registry. In-flight batches hold `Arc`
    /// clones, so a pinned revision survives every sweep until its last
    /// batch completes — readers never block, and a handle can never be
    /// freed under a batch.
    fn sweep_draining(&self, inner: &mut Inner) {
        let mut still = Vec::with_capacity(inner.draining.len());
        for entry in inner.draining.drain(..) {
            if Arc::strong_count(&entry) > 1 {
                still.push(entry);
            } else {
                gobo_fault::fail_point!("registry.retire");
                self.metrics.registry_retired.fetch_add(1, Ordering::Relaxed);
                if inner.retired.len() >= RETIRED_MEMORY {
                    inner.retired.pop_front();
                }
                inner.retired.push_back((entry.key.clone(), entry.rev));
            }
        }
        inner.draining = still;
    }

    fn memory_bytes(inner: &Inner) -> usize {
        let slots = inner.slots.values();
        slots
            .flat_map(|s| s.active.iter().chain(s.canary.iter().map(|c| &c.entry)))
            .chain(inner.draining.iter())
            .map(|e| e.resident_bytes)
            .sum()
    }
}

/// Reads and parses a `.gobom` container. The parse validates the CRC,
/// so a corrupt file fails here, before any registry state is touched.
fn read_container(path: &str) -> Result<CompressedModel, ServeError> {
    gobo_fault::fail_point!(
        "registry.load",
        ServeError::Io("injected registry.load fault".to_owned())
    );
    gobo_sanitize::blocking_io("serve.registry.read_container");
    let bytes = std::fs::read(path).map_err(|e| ServeError::Io(format!("{path}: {e}")))?;
    Ok(CompressedModel::from_bytes(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gobo::pipeline::{quantize_model, QuantizeOptions};
    use gobo_model::batch::EncodeInput;
    use gobo_model::config::ModelConfig;
    use gobo_model::forward::EncoderOutput;
    use gobo_model::TransformerModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed_with(seed: u64, options: &QuantizeOptions) -> CompressedModel {
        let config = ModelConfig::tiny("Reg", 1, 16, 2, 40, 12).unwrap();
        let model = TransformerModel::new(config, &mut StdRng::seed_from_u64(seed)).unwrap();
        CompressedModel::new(&model, quantize_model(&model, options).unwrap().archive)
    }

    fn compressed(seed: u64, bits: u8) -> CompressedModel {
        compressed_with(seed, &QuantizeOptions::gobo(bits).unwrap())
    }

    fn registry(max_bytes: usize, max_models: usize) -> ModelRegistry {
        ModelRegistry::new(RegistryConfig { max_bytes, max_models }, Arc::new(Metrics::new()))
    }

    /// One sequence through the entry's engine — what a batch of one
    /// is served.
    fn serve_one(entry: &ModelEntry, ids: &[usize]) -> EncoderOutput {
        let input = EncodeInput { ids, type_ids: &[] };
        entry.engine.encode_batch(&[input]).expect("engine encode failed").remove(0)
    }

    /// The FP32 oracle: decode the container, run the dense forward.
    fn oracle(c: &CompressedModel, ids: &[usize]) -> EncoderOutput {
        c.decode().unwrap().encode(ids, &[]).unwrap()
    }

    #[test]
    fn insert_get_and_name_bits_key() {
        let r = registry(usize::MAX, 16);
        r.insert("m", compressed(1, 3)).unwrap();
        r.insert("m", compressed(1, 4)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("m", Some(3)).unwrap().key.bits, 3);
        assert_eq!(r.get("m", Some(4)).unwrap().key.bits, 4);
        // Nameless-bits lookup returns the most recently used.
        assert_eq!(r.get("m", None).unwrap().key.bits, 4);
        assert!(matches!(r.get("nope", None), Err(ServeError::ModelNotFound { .. })));
        assert!(r.get("m", Some(7)).is_err());
    }

    #[test]
    fn lru_eviction_under_byte_budget() {
        let models: Vec<CompressedModel> = (1..=3u64).map(|s| compressed(s, 3)).collect();
        // True bytes differ a little per model (outlier counts), so size
        // the budget from the models themselves: room for any two of
        // them, never for all three.
        let probe = registry(usize::MAX, 16);
        let bytes: Vec<usize> = models
            .iter()
            .map(|c| probe.insert("probe", c.clone()).unwrap().resident_bytes)
            .collect();
        let r = registry(bytes.iter().sum::<usize>() - bytes.iter().min().unwrap(), 16);
        r.insert("a", models[0].clone()).unwrap();
        r.insert("b", models[1].clone()).unwrap();
        r.get("a", None).unwrap(); // touch `a`: now `b` is LRU
        r.insert("c", models[2].clone()).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.get("a", None).is_ok());
        assert!(r.get("b", None).is_err(), "LRU entry should be evicted");
        let c = r.get("c", None).unwrap();
        assert_eq!(serve_one(&c, &[4, 5]), oracle(&models[2], &[4, 5]));
    }

    #[test]
    fn newest_model_survives_even_over_budget() {
        let r = registry(1, 16); // budget smaller than any model
        r.insert("a", compressed(1, 3)).unwrap();
        r.insert("b", compressed(2, 3)).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.get("b", None).is_ok());
    }

    #[test]
    fn model_count_cap() {
        let r = registry(usize::MAX, 2);
        r.insert("a", compressed(1, 3)).unwrap();
        r.insert("b", compressed(2, 3)).unwrap();
        r.insert("c", compressed(3, 3)).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.get("a", None).is_err());
    }

    #[test]
    fn held_handle_survives_eviction() {
        let r = registry(1, 16);
        let a = compressed(1, 3);
        let held = r.insert("a", a.clone()).unwrap();
        r.insert("b", compressed(2, 3)).unwrap(); // evicts `a`
        assert!(r.get("a", None).is_err());
        // The Arc keeps the engine alive for in-flight work.
        assert_eq!(serve_one(&held, &[1, 2]), oracle(&a, &[1, 2]));
    }

    #[test]
    fn concurrent_get_races_eviction_refcount_pin_wins() {
        // Budget of one model: every insert evicts the previous entry,
        // so every getter pin is racing an eviction. The pin must win:
        // an entry evicted under a live handle keeps serving that
        // handle, byte-identical, until the handle drops.
        use std::sync::atomic::{AtomicBool, AtomicUsize};
        /// Inserts past which a getter that never served is a failure.
        const MAX_INSERTS: usize = 100_000;
        let models: Vec<CompressedModel> = (0..4u64).map(|s| compressed(s, 3)).collect();
        let reference: Vec<_> = models.iter().map(|c| oracle(c, &[1, 2, 3])).collect();
        let r = Arc::new(registry(1, 16));
        r.insert("m0", models[0].clone()).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let served: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let mut getters = Vec::new();
        for t in 0..3usize {
            let (r, stop, served) = (Arc::clone(&r), Arc::clone(&stop), Arc::clone(&served));
            let reference = reference.clone();
            getters.push(std::thread::spawn(move || {
                let mut j = t;
                while !stop.load(Ordering::Relaxed) {
                    j = (j + 1) % 4;
                    let Ok(entry) = r.get(&format!("m{j}"), None) else { continue };
                    // `entry` is now a pin. The inserter may evict the
                    // slot at any point from here on; the encode must
                    // still see the right weights.
                    let out = serve_one(&entry, &[1, 2, 3]);
                    assert_eq!(out, reference[j], "pinned handle served wrong weights");
                    served[t].fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // At least 200 inserts, and on until every getter has served a
        // pinned encode: the test asserts the pin, not the OS scheduler.
        // A getter that panicked ends the loop; its join reports why.
        let idle = || served.iter().any(|s| s.load(Ordering::Relaxed) == 0);
        let mut inserts = 0usize;
        while inserts < 200
            || (inserts < MAX_INSERTS && idle() && !getters.iter().any(|g| g.is_finished()))
        {
            let j = inserts % 4;
            r.insert(&format!("m{j}"), models[j].clone()).unwrap();
            inserts += 1;
        }
        stop.store(true, Ordering::Relaxed);
        for g in getters {
            g.join().unwrap();
        }
        assert!(!idle(), "a getter never won a race in {inserts} inserts: served {served:?}");
        // Only the newest insert survives the one-model budget.
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn list_orders_by_recency() {
        let r = registry(usize::MAX, 16);
        r.insert("a", compressed(1, 3)).unwrap();
        r.insert("b", compressed(2, 3)).unwrap();
        r.get("a", None).unwrap();
        let names: Vec<String> = r.list().iter().map(|e| e.key.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn status_reports_resident_and_evicted() {
        let r = registry(1, 16); // budget smaller than any model
        r.insert("a", compressed(1, 3)).unwrap();
        r.insert("b", compressed(2, 3)).unwrap(); // evicts `a`
        let status = r.status();
        assert_eq!(status.len(), 2);
        let b = status.iter().find(|s| s.key.name == "b").unwrap();
        assert!(b.resident);
        assert!(b.resident_bytes > 0);
        assert_eq!(b.state, RevState::Active);
        assert_eq!(b.rev, 1);
        let a = status.iter().find(|s| s.key.name == "a").unwrap();
        assert!(!a.resident);
        assert_eq!(a.resident_bytes, 0);
        assert!(a.compressed_bytes > 0);
        assert_eq!(a.state, RevState::Evicted);
        // Re-inserting clears the evicted record.
        let r2 = registry(usize::MAX, 16);
        r2.insert("a", compressed(1, 3)).unwrap();
        let status = r2.status();
        assert_eq!(status.len(), 1);
        assert!(status[0].resident);
    }

    #[test]
    fn load_file_round_trip_and_errors() {
        let dir = std::env::temp_dir().join("gobo-serve-registry");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.gobom");
        let file = compressed(4, 3).to_bytes();
        std::fs::write(&path, &file).unwrap();
        let r = registry(usize::MAX, 4);
        let entry = r.load_file("disk", path.to_str().unwrap()).unwrap();
        assert_eq!(entry.key.name, "disk");
        assert_eq!(entry.compressed_bytes, file.len(), "compressed_bytes is the file length");
        assert!(matches!(r.load_file("x", "/nonexistent/file.gobom"), Err(ServeError::Io(_))));
        std::fs::write(&path, b"garbage").unwrap();
        assert!(matches!(r.load_file("x", path.to_str().unwrap()), Err(ServeError::Format(_))));
    }

    #[test]
    fn publish_promote_flips_active_and_drains_old_rev() {
        let r = registry(usize::MAX, 16);
        let (c1, c2) = (compressed(1, 3), compressed(2, 3));
        let first = r.insert("m", c1.clone()).unwrap();
        assert_eq!(first.rev, 1);
        let (second, state) = r.publish("m", c2.clone()).unwrap();
        assert_eq!(state, RevState::Canary);
        assert_eq!(second.rev, 2);
        // Active lookup still resolves rev 1 while the canary pends.
        assert_eq!(r.get("m", None).unwrap().rev, 1);
        assert_eq!(r.canary_for(&first.key).unwrap().rev, 2);

        // An in-flight handle pins rev 1 across the promote.
        let in_flight = r.get("m", None).unwrap();
        let promoted = r.promote(&first.key).unwrap();
        assert_eq!(promoted.rev, 2);
        assert_eq!(r.get("m", None).unwrap().rev, 2);
        assert_eq!(serve_one(&promoted, &[1, 2]), oracle(&c2, &[1, 2]));
        assert!(r.canary_for(&first.key).is_none());
        drop(first);
        drop(second);
        drop(promoted);
        r.sweep();
        assert_eq!(r.draining_len(), 1, "rev 1 still pinned by in_flight");
        assert_eq!(serve_one(&in_flight, &[1, 2]), oracle(&c1, &[1, 2]));
        drop(in_flight);
        r.sweep();
        assert_eq!(r.draining_len(), 0, "rev 1 retired once its refcount drained");
        let status = r.status();
        assert!(
            status.iter().any(|s| s.state == RevState::Retired && s.rev == 1),
            "retired rev remembered: {status:?}"
        );
    }

    #[test]
    fn publish_into_empty_slot_goes_straight_to_active() {
        let r = registry(usize::MAX, 16);
        let (entry, state) = r.publish("fresh", compressed(1, 3)).unwrap();
        assert_eq!(state, RevState::Active);
        assert_eq!(entry.rev, 1);
        assert_eq!(r.get("fresh", None).unwrap().rev, 1);
    }

    #[test]
    fn rollback_keeps_active_serving() {
        let r = registry(usize::MAX, 16);
        let first = r.insert("m", compressed(1, 3)).unwrap();
        let (second, _) = r.publish("m", compressed(2, 3)).unwrap();
        let rolled = r.rollback(&first.key).unwrap();
        assert_eq!(rolled.rev, second.rev);
        assert!(r.canary_for(&first.key).is_none());
        assert_eq!(r.get("m", None).unwrap().rev, 1);
        // Rolling back twice is a no-op.
        assert!(r.rollback(&first.key).is_none());
        drop(second);
        drop(rolled);
        r.sweep();
        assert_eq!(r.draining_len(), 0);
    }

    #[test]
    fn superseded_canary_drains() {
        let r = registry(usize::MAX, 16);
        let first = r.insert("m", compressed(1, 3)).unwrap();
        let (c2, _) = r.publish("m", compressed(2, 3)).unwrap();
        let (c3, _) = r.publish("m", compressed(3, 3)).unwrap();
        assert_eq!(c3.rev, 3);
        assert_eq!(r.canary_for(&first.key).unwrap().rev, 3);
        drop(c2);
        drop(c3);
        r.sweep();
        // c2 was superseded and nothing pins it; c3 is still the canary.
        assert_eq!(r.draining_len(), 0);
        assert_eq!(r.canary_for(&first.key).unwrap().rev, 3);
    }

    #[test]
    fn resident_bytes_are_conserved_across_the_lifecycle() {
        // What one revision must cost, from the container alone: its
        // skeleton's tensors plus every archived layer at its packed size.
        fn expected(c: &CompressedModel) -> usize {
            let packed: usize = c.archive.iter().map(|(_, layer)| layer.compressed_bytes()).sum();
            c.skeleton.resident_bytes() + packed
        }
        let fc_only = QuantizeOptions::gobo(3).unwrap();
        let with_embeddings = fc_only.clone().with_embedding_bits(3).unwrap();
        for options in [fc_only, with_embeddings] {
            let models: Vec<CompressedModel> =
                (1..=4u64).map(|s| compressed_with(s, &options)).collect();
            let r = registry(usize::MAX, 2);
            let check = |live: &[usize], what: &str| {
                r.sweep();
                let want: usize = live.iter().map(|&i| expected(&models[i])).sum();
                assert_eq!(r.resident_bytes(), want, "{what}: registry total");
                let rows: usize = r.status().iter().map(|s| s.resident_bytes).sum();
                assert_eq!(rows, want, "{what}: sum over status rows");
                for s in r.status().iter().filter(|s| s.resident) {
                    let (held, file) = (s.resident_bytes, s.compressed_bytes);
                    assert!(held <= file, "{what}: r{} holds {held} B of a {file} B file", s.rev);
                }
            };
            let first = r.insert("m", models[0].clone()).unwrap();
            assert_eq!(first.resident_bytes, first.engine.resident_bytes());
            assert!(first.compressed_bytes > 0 && first.quantized_layers > 0);
            let key = first.key.clone();
            drop(first);
            check(&[0], "insert");
            r.publish("m", models[1].clone()).unwrap();
            check(&[0, 1], "publish (canary)");
            r.publish("m", models[2].clone()).unwrap();
            check(&[0, 2], "supersede (old canary retired)");
            r.rollback(&key).unwrap();
            check(&[0], "rollback");
            r.publish("m", models[3].clone()).unwrap();
            let pin = r.get("m", None).unwrap();
            r.promote(&key).unwrap();
            check(&[0, 3], "promote (old active pinned, draining)");
            drop(pin);
            check(&[3], "drained");
            r.insert("n", models[1].clone()).unwrap();
            r.insert("o", models[2].clone()).unwrap(); // third slot: evicts LRU `m`
            assert!(r.status().iter().any(|s| s.state == RevState::Evicted && s.key.name == "m"));
            check(&[1, 2], "eviction");
            // One representation: the 3-bit model costs well under half
            // of its own decoded weights.
            let decoded_weights = models[0].decode().unwrap().weight_bytes();
            assert!(expected(&models[0]) * 2 < decoded_weights, "{decoded_weights}");
        }
    }

    /// Whether the slot's canary is `rev` with a trial nothing has
    /// touched yet: no ticket taken, no sample on either side.
    fn trial_is_fresh(r: &ModelRegistry, key: &ModelKey, rev: u64) -> bool {
        let inner = r.lock_inner();
        let canary = inner.slots.get(key).and_then(|s| s.canary.as_ref());
        canary.is_some_and(|c| c.entry.rev == rev && c.trial == VerdictWindow::default())
    }

    /// A sample names the trial it measured. A batch resolved onto
    /// canary rev 2 that comes back after rev 3 superseded it — with a
    /// latency or with a failure — must not touch rev 3's trial: not
    /// its window, not its place in the slot, not the rollback counter.
    #[test]
    fn a_superseded_canarys_batch_cannot_touch_its_successors_trial() {
        use crate::lifecycle::WindowVerdict::{Clean, Pending};
        let policy = CanaryPolicy { traffic_pct: 100, window: 3, ..Default::default() };
        let r = registry(usize::MAX, 16);
        let key = r.insert("m", compressed(1, 3)).unwrap().key.clone();
        r.publish("m", compressed(2, 3)).unwrap();
        // Two of the three samples rev 2 needs, then two batches in
        // flight on it while rev 3 is published.
        for _ in 0..2 {
            let batch = r.resolve("m", None, &policy).unwrap();
            assert_eq!(batch.canary.map(|c| c.rev), Some(2));
            assert_eq!(r.report(&key, 2, &policy, true, Some(100)), Pending);
        }
        let ok_batch = r.resolve("m", None, &policy).unwrap();
        let failed_batch = r.resolve("m", None, &policy).unwrap();
        assert_eq!((ok_batch.trial_rev, failed_batch.trial_rev), (Some(2), Some(2)));
        r.publish("m", compressed(3, 3)).unwrap();
        assert!(trial_is_fresh(&r, &key, 3));

        // Rev 2's third sample would have completed rev 2's window.
        assert_eq!(r.report(&key, 2, &policy, true, Some(100)), Pending);
        assert!(trial_is_fresh(&r, &key, 3), "rev 2's sample landed in rev 3's window");
        // Rev 2's failure would have been an immediate rollback.
        assert_eq!(r.report(&key, 2, &policy, true, None), Pending);
        assert!(trial_is_fresh(&r, &key, 3), "rev 2's failure rolled rev 3 back");
        // Nor does a baseline sample taken beside rev 2 count for rev 3.
        assert_eq!(r.report(&key, 2, &policy, false, Some(100)), Pending);
        assert!(trial_is_fresh(&r, &key, 3));
        assert_eq!(r.metrics.canary_rollbacks.load(Ordering::Relaxed), 0);
        assert_eq!(r.metrics.canary_promotions.load(Ordering::Relaxed), 0);
        assert_eq!(r.get("m", None).unwrap().rev, 1);

        // Rev 3 is judged on exactly its own three samples.
        assert_eq!(r.report(&key, 3, &policy, true, Some(100)), Pending);
        assert_eq!(r.report(&key, 3, &policy, true, Some(100)), Pending);
        assert_eq!(r.report(&key, 3, &policy, true, Some(100)), Clean);
        assert_eq!(r.get("m", None).unwrap().rev, 3);
        assert_eq!(r.metrics.canary_promotions.load(Ordering::Relaxed), 1);
        // And a straggler of the settled trial moves nothing either.
        assert_eq!(r.report(&key, 3, &policy, true, None), Pending);
        assert_eq!(r.metrics.canary_rollbacks.load(Ordering::Relaxed), 0);
    }

    /// `resolve` hands the canary out on exactly the trial's canary
    /// tickets, names the trial on every batch while it pends, and the
    /// ticket count starts over with each published revision.
    #[test]
    fn resolve_routes_the_trials_share_and_names_the_trial() {
        let policy = CanaryPolicy { traffic_pct: 50, ..Default::default() };
        let r = registry(usize::MAX, 16);
        r.insert("m", compressed(1, 3)).unwrap();
        let plain = r.resolve("m", None, &policy).unwrap();
        assert_eq!((plain.active.rev, plain.trial_rev, plain.canary.is_none()), (1, None, true));
        for rev in [2u64, 3] {
            r.publish("m", compressed(rev, 3)).unwrap();
            let routed: Vec<Option<u64>> = (0..4)
                .map(|_| {
                    let batch = r.resolve("m", None, &policy).unwrap();
                    assert_eq!((batch.active.rev, batch.trial_rev), (1, Some(rev)));
                    batch.canary.map(|c| c.rev)
                })
                .collect();
            assert_eq!(routed, [Some(rev), None, Some(rev), None]);
        }
        assert!(matches!(r.resolve("nope", None, &policy), Err(ServeError::ModelNotFound { .. })));
    }

    // The `registry.swap` / `registry.retire` failpoint tests live in
    // `tests/chaos.rs`: configuring process-global failpoints from unit
    // tests would race the other lib tests running in parallel.

    #[test]
    fn status_shows_canary_and_draining_revs() {
        let r = registry(usize::MAX, 16);
        let first = r.insert("m", compressed(1, 3)).unwrap();
        r.publish("m", compressed(2, 3)).unwrap();
        // `first` is still held here, so after promote it drains.
        r.promote(&first.key).unwrap();
        r.publish("m", compressed(3, 3)).unwrap();
        let status = r.status();
        let states: Vec<(u64, RevState)> = status.iter().map(|s| (s.rev, s.state)).collect();
        assert!(states.contains(&(2, RevState::Active)), "{states:?}");
        assert!(states.contains(&(3, RevState::Canary)), "{states:?}");
        assert!(states.contains(&(1, RevState::Draining)), "{states:?}");
        // Revision bytes are charged while draining.
        let draining_row = status.iter().find(|s| s.state == RevState::Draining).unwrap();
        assert!(draining_row.resident);
        assert!(draining_row.resident_bytes > 0);
    }
}
