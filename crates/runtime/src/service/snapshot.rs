//! The versioned binary snapshot behind [`FleetService::checkpoint`] /
//! [`FleetService::restore`] — serde-free, in-house writer/reader.
//!
//! # Format (version 3)
//!
//! All integers little-endian; `f64` as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a round trip is **bit-identical**. Layout:
//!
//! ```text
//! magic   b"DPMFLEET"                      8 bytes
//! version u32                              currently 3
//! section*                                 tag u32, payload-len u64, payload, crc32 u32
//! end     tag 0, len 0, crc32 u32
//! ```
//!
//! Each section frame (tag + length + payload) is closed by its CRC-32
//! (IEEE 802.3 polynomial, computed eight bytes at a time) over the
//! whole frame, so any bit flip — payload, tag or length — surfaces as
//! [`SnapshotError::ChecksumMismatch`] instead of being decoded into
//! plausible-looking state, and a truncated stream surfaces as
//! [`SnapshotError::Truncated`]. The writer hashes each frame as it
//! writes it. Version-1 (no CRCs, no health fields) and version-2
//! snapshots remain readable; a snapshot with a version newer than this
//! build is rejected with [`SnapshotError::UnsupportedVersion`] rather
//! than misparsed.
//!
//! Sections (each at most once; unknown tags are skipped — after CRC
//! verification — so later versions can append):
//!
//! | tag | name     | payload                                          |
//! |-----|----------|--------------------------------------------------|
//! | 1   | META     | epoch, next device id, per-class LP fingerprints |
//! | 2   | POLICIES | deduplicated randomized-policy table             |
//! | 3   | DEVICES  | per device, the record below                     |
//! | 4   | CLUSTERS | per cluster, the record below                    |
//!
//! A version-3 device record, field by field (`f64s` and `pairs` are a
//! `u64` count, then that many `f64`s or `[f64; 2]`s; `opt` is a 0/1
//! byte, then the field when 1):
//!
//! | field | encoding |
//! |-------|----------|
//! | id, class, cluster (`u64::MAX`: none), policy index | 4 × `u64` |
//! | window counts | `pairs` |
//! | k-bit history, slices observed | 2 × `u64` |
//! | window ring | `u64` word count, then the words of [`EstimatorState::ring`] |
//! | last fit | `opt f64s` |
//! | divergence | `opt f64` |
//! | counts at the last fit | `opt pairs` |
//! | health, strikes, probation left | `u8`, `u32`, `u64` |
//!
//! A version-3 cluster record: class (`u64`), members (a `u64` count,
//! then `u64` device indices), representative (`f64s`), last-solved
//! model (`opt f64s`), policy index (`u64`), power (`opt f64`), epochs
//! since the last solve (`u64`), consecutive holds (`u32`) and backoff
//! left (`u64`).
//!
//! Versions 1 and 2 store what version 3 drops because the reader can
//! derive it or never uses it:
//! - the ring as one 0/1 byte per slice;
//! - a device's fitted SR record (written when the estimator has a last
//!   fit, right after the policy index) and a cluster's representative
//!   SR record (right after the representative);
//! - after the ring, a window weight (written as `1.0` and ignored), and
//!   after the divergence, a blend-prior table (written absent). Only a
//!   fleet that blended consecutive fits could have written a present
//!   blend prior, and its devices cannot continue here, so reading one
//!   is a [`SnapshotError::Mismatch`].
//!
//! Version 1 also lacks the health fields and the clusters' hold and
//! backoff counters. An SR record holds the state count, each state's
//! requests and name, and the row-major transition probabilities; the
//! reader refuses a version-1 or -2 SR record that is not byte for byte
//! what the writer derives from the matrix beside it (a
//! [`SnapshotError::Mismatch`]; the clustering gauge and the solves read
//! the matrix).
//!
//! Beyond framing, the reader refuses what a writer never emits:
//! device ids or cluster member lists that do not strictly ascend (a
//! [`SnapshotError::Format`]; the service looks ids up by binary
//! search, and a member listed twice leaves a device pointing at a
//! dropped cluster once the other leaves), a representative that is
//! not an `n × n` matrix of the class's model (a
//! [`SnapshotError::Mismatch`]), and a ring whose word count does not
//! match its slices or whose padding bits are set (the estimator's
//! [`DpmError::BadConfiguration`], as a [`SnapshotError::Dpm`]).
//!
//! Policies are written once each and referenced by table index, so the
//! `Arc` sharing between a cluster and its member devices survives the
//! round trip. LP sessions are **not** serialized: restore rehydrates
//! each cluster by forking its class's base session and replaying one
//! warm solve of the last-solved model (clusters that never solved just
//! fork).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

use dpm_core::DpmError;
use dpm_lp::ReloadKind;
use dpm_mdp::RandomizedPolicy;
use dpm_trace::{EstimatorState, WindowKind, WindowedEstimator};

use crate::fleet::{Cluster, Device, DeviceHealth};
use crate::service::{DeviceId, FleetService};

/// Magic bytes opening every snapshot.
const MAGIC: &[u8; 8] = b"DPMFLEET";
/// The newest format version: what this build writes, and the ceiling
/// of what it reads.
const VERSION: u32 = 3;
/// The oldest version this build still reads (no CRCs, no health).
const OLDEST_VERSION: u32 = 1;

const TAG_END: u32 = 0;
const TAG_META: u32 = 1;
const TAG_POLICIES: u32 = 2;
const TAG_DEVICES: u32 = 3;
const TAG_CLUSTERS: u32 = 4;

/// Sentinel for "no cluster" in a device record.
const NO_CLUSTER: u64 = u64::MAX;

/// Why a checkpoint or restore failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader/writer failed.
    Io(std::io::Error),
    /// The snapshot is structurally malformed (bad magic, inconsistent
    /// framing, undecodable payload).
    Format {
        /// What was wrong with the byte stream.
        reason: String,
    },
    /// A section's CRC-32 does not match its frame: the snapshot was
    /// corrupted in storage or transit (bit flips, partial overwrite).
    ChecksumMismatch {
        /// The corrupted section's tag.
        tag: u32,
        /// The CRC-32 recomputed over the frame as read.
        expected: u32,
        /// The CRC-32 stored in the snapshot.
        found: u32,
    },
    /// The byte stream ended before the structure it promised — a
    /// truncated file or interrupted download.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
    },
    /// The snapshot was written by a newer build than this reader:
    /// refusing to guess at an unknown layout.
    UnsupportedVersion {
        /// The version stamped in the snapshot.
        found: u32,
        /// The newest version this build reads.
        newest: u32,
    },
    /// The snapshot does not belong to this service (class count or
    /// LP shape differs, or internal references are inconsistent).
    Mismatch {
        /// What did not line up.
        reason: String,
    },
    /// Rebuilding a model/estimator or replaying a session solve
    /// failed.
    Dpm(DpmError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Format { reason } => write!(f, "malformed snapshot: {reason}"),
            SnapshotError::ChecksumMismatch {
                tag,
                expected,
                found,
            } => write!(
                f,
                "snapshot section {tag} is corrupted: stored CRC-32 {found:#010x} \
                 does not match recomputed {expected:#010x}"
            ),
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::UnsupportedVersion { found, newest } => write!(
                f,
                "snapshot version {found} is newer than this reader (newest supported: {newest})"
            ),
            SnapshotError::Mismatch { reason } => {
                write!(f, "snapshot does not match this service: {reason}")
            }
            SnapshotError::Dpm(e) => write!(f, "snapshot state rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Dpm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<DpmError> for SnapshotError {
    fn from(e: DpmError) -> Self {
        SnapshotError::Dpm(e)
    }
}

fn format_err(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Format {
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected 0xEDB88320), slice-by-8 and
// dependency-free.

/// The slice-by-8 tables. Table 0 is the byte-at-a-time table; table
/// `t` carries a byte's contribution on through `t` more zero bytes, so
/// eight bytes fold into the CRC with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let carried = tables[t - 1][i];
            tables[t][i] = (carried >> 8) ^ tables[0][(carried & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// A running CRC-32 (IEEE polynomial, init/xorout `!0`), fed in pieces.
#[derive(Debug, Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `bytes` in: eight at a time, the tail byte by byte.
    fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let at = |table: &[u32; 256], index: u32| table[(index & 0xFF) as usize];
        let mut crc = self.0;
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            let word = le_u64(word);
            let low = word as u32 ^ crc;
            let high = (word >> 32) as u32;
            crc = at(t7, low)
                ^ at(t6, low >> 8)
                ^ at(t5, low >> 16)
                ^ at(t4, low >> 24)
                ^ at(t3, high)
                ^ at(t2, high >> 8)
                ^ at(t1, high >> 16)
                ^ at(t0, high >> 24);
        }
        for &byte in tail {
            crc = (crc >> 8) ^ at(t0, crc ^ u32::from(byte));
        }
        self.0 = crc;
    }

    fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `bytes` (IEEE polynomial, init/xorout `!0`).
#[cfg(test)]
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The little-endian `u64` of the first eight of `bytes` (zero when
/// there are fewer).
fn le_u64(bytes: &[u8]) -> u64 {
    bytes
        .first_chunk()
        .map_or(0, |&word| u64::from_le_bytes(word))
}

fn mismatch_err(reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Mismatch {
        reason: reason.into(),
    }
}

/// What [`FleetService::restore`] rebuilt and what the session
/// rehydration cost — the proof there was no cold-solve storm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RestoreReport {
    /// Devices rebuilt from the snapshot.
    pub devices: usize,
    /// Clusters rebuilt from the snapshot.
    pub clusters: usize,
    /// Warm solves replayed to rehydrate previously-solved cluster
    /// sessions (at most one per cluster; never-solved clusters cost
    /// only a fork).
    pub replayed_solves: usize,
    /// Replayed model swaps that reloaded warm.
    pub warm_reloads: usize,
    /// Replayed model swaps that fell back to a cold rebuild.
    pub cold_reloads: usize,
    /// Simplex pivots spent by the replayed solves.
    pub pivots: usize,
}

// ---------------------------------------------------------------------
// Little-endian writer helpers.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u64(buf, vs.len() as u64);
    for &v in vs {
        put_f64(buf, v);
    }
}

fn put_pairs(buf: &mut Vec<u8>, pairs: impl ExactSizeIterator<Item = [f64; 2]>) {
    put_u64(buf, pairs.len() as u64);
    for [zero, one] in pairs {
        put_f64(buf, zero);
        put_f64(buf, one);
    }
}

/// A presence flag, then `value` written by `put` when present.
fn put_opt<T>(buf: &mut Vec<u8>, value: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    put_bool(buf, value.is_some());
    if let Some(value) = value {
        put(buf, value);
    }
}

/// The head of every version-1/2 SR record of `service`: the state
/// count, then each state's requests and name, read off the model of an
/// empty window — every k-memory fit has the same ones. All classes fit
/// with the fleet's one extractor, so the first class's serves (a
/// service without classes has no fits).
fn sr_head(service: &FleetService) -> Result<Vec<u8>, DpmError> {
    let Some(class) = service.classes.first() else {
        return Ok(Vec::new());
    };
    let n = class.extractor.num_states();
    let template = class.extractor.extract_from_counts(&vec![[0.0; 2]; n])?;
    let mut head = Vec::new();
    put_u64(&mut head, n as u64);
    for s in 0..n {
        put_u32(&mut head, template.requests(s));
        put_str(&mut head, template.state_name(s));
    }
    Ok(head)
}

/// A version-1/2 SR record: the service's [`sr_head`], then the
/// row-major transition probabilities `matrix`.
fn put_sr(buf: &mut Vec<u8>, head: &[u8], matrix: &[f64]) {
    buf.extend_from_slice(head);
    for &p in matrix {
        put_f64(buf, p);
    }
}

/// Whether `record` is, byte for byte, the SR record [`put_sr`] writes
/// for `matrix` under `head`.
fn is_sr_record_of(record: &[u8], head: &[u8], matrix: &[f64]) -> bool {
    let mut expected = Vec::with_capacity(record.len());
    put_sr(&mut expected, head, matrix);
    record == expected
}

// ---------------------------------------------------------------------
// Little-endian reader: a cursor over one section's payload.

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        let bytes = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| SnapshotError::Truncated {
                what: what.to_string(),
            })?;
        self.pos += n;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], SnapshotError> {
        let bytes = self.take(N, what)?;
        Ok(bytes.first_chunk().copied().unwrap_or([0; N]))
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.array(what)?))
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    fn f64(&mut self, what: &str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &str) -> Result<bool, SnapshotError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format_err(format!("{what}: invalid flag byte {b}"))),
        }
    }

    /// A length field that must fit in memory as a `usize` and leave
    /// enough payload for `item_bytes`-sized items.
    fn len(&mut self, what: &str, item_bytes: usize) -> Result<usize, SnapshotError> {
        let n = usize::try_from(self.u64(what)?)
            .map_err(|_| format_err(format!("{what}: length overflows usize")))?;
        if n.checked_mul(item_bytes.max(1))
            .is_none_or(|total| total > self.buf.len() - self.pos)
        {
            return Err(format_err(format!("{what}: length {n} exceeds payload")));
        }
        Ok(n)
    }

    /// A length, then that many `u64`s taken in one piece.
    fn u64s(&mut self, what: &str) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len(what, 8)?;
        Ok(self
            .take(8 * n, what)?
            .chunks_exact(8)
            .map(le_u64)
            .collect())
    }

    fn f64s(&mut self, what: &str) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len(what, 8)?;
        let bytes = self.take(8 * n, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|word| f64::from_bits(le_u64(word)))
            .collect())
    }

    fn pairs(&mut self, what: &str) -> Result<Vec<[f64; 2]>, SnapshotError> {
        let n = self.len(what, 16)?;
        let bytes = self.take(16 * n, what)?;
        Ok(bytes
            .chunks_exact(16)
            .map(|pair| {
                let (zero, one) = pair.split_at(8);
                [f64::from_bits(le_u64(zero)), f64::from_bits(le_u64(one))]
            })
            .collect())
    }

    /// A version-1/2 ring — a length, then one 0/1 byte per slice,
    /// oldest first — packed into [`EstimatorState::ring`] words, with
    /// its slice count.
    fn byte_ring(&mut self, what: &str) -> Result<(Vec<u64>, usize), SnapshotError> {
        let n = self.len(what, 1)?;
        let bytes = self.take(n, what)?;
        if let Some(b) = bytes.iter().find(|&&b| b > 1) {
            return Err(format_err(format!("{what}: invalid flag byte {b}")));
        }
        let words = bytes
            .chunks(64)
            .map(|slices| {
                let word = slices.iter().fold(0, |word, &b| (word << 1) | u64::from(b));
                word << (64 - slices.len())
            })
            .collect();
        Ok((words, n))
    }

    /// A presence flag, then the value `read` takes when present.
    fn opt<T>(
        &mut self,
        what: &str,
        read: impl FnOnce(&mut Self, &str) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        Ok(if self.bool(what)? {
            Some(read(self, what)?)
        } else {
            None
        })
    }

    /// A version-1/2 SR record (see [`put_sr`]), taken whole as bytes.
    fn sr_record(&mut self, what: &str) -> Result<&'a [u8], SnapshotError> {
        let mut probe = Cursor::new(self.buf);
        probe.pos = self.pos;
        let n = probe.len(what, 4)?;
        for _ in 0..n {
            probe.u32(what)?;
            let name = probe.len(what, 1)?;
            probe.take(name, what)?;
        }
        let len = n
            .checked_mul(n)
            .and_then(|cells| cells.checked_mul(8))
            .and_then(|matrix| matrix.checked_add(probe.pos - self.pos))
            .ok_or_else(|| format_err(format!("{what}: {n} states overflow usize")))?;
        self.take(len, what)
    }

    fn finish(&self, what: &str) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(format_err(format!(
                "{what}: {} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Writing.

/// Interns `policy` in the dedup table, returning its index.
fn intern(
    table: &mut Vec<Arc<RandomizedPolicy>>,
    by_ptr: &mut BTreeMap<usize, u64>,
    policy: &Arc<RandomizedPolicy>,
) -> u64 {
    let key = Arc::as_ptr(policy) as usize;
    *by_ptr.entry(key).or_insert_with(|| {
        table.push(Arc::clone(policy));
        (table.len() - 1) as u64
    })
}

pub(crate) fn write_snapshot(
    service: &FleetService,
    writer: &mut impl Write,
) -> Result<(), SnapshotError> {
    write_snapshot_versioned(service, writer, VERSION)
}

/// Version-parameterized writer: `3` writes the current layout; `1`
/// (CRC-free) and `2` reproduce the legacy layouts for the
/// backward-compatibility tests.
fn write_snapshot_versioned(
    service: &FleetService,
    writer: &mut impl Write,
    version: u32,
) -> Result<(), SnapshotError> {
    // Policy table, deduplicated by allocation so sharing survives.
    let mut table: Vec<Arc<RandomizedPolicy>> = Vec::new();
    let mut by_ptr: BTreeMap<usize, u64> = BTreeMap::new();
    let device_policy: Vec<u64> = service
        .devices
        .iter()
        .map(|d| intern(&mut table, &mut by_ptr, &d.policy))
        .collect();
    let cluster_policy: Vec<u64> = service
        .clusters
        .iter()
        .map(|c| intern(&mut table, &mut by_ptr, &c.policy))
        .collect();
    let head = if version < 3 {
        sr_head(service)?
    } else {
        Vec::new()
    };

    let mut meta = Vec::new();
    put_u64(&mut meta, service.epoch);
    put_u64(&mut meta, service.next_id);
    put_u64(&mut meta, service.classes.len() as u64);
    for class in &service.classes {
        put_u64(&mut meta, class.base_policy.num_states() as u64);
        put_u64(&mut meta, class.base_policy.num_actions() as u64);
    }

    let mut policies = Vec::new();
    put_u64(&mut policies, table.len() as u64);
    for policy in &table {
        put_u64(&mut policies, policy.num_states() as u64);
        put_u64(&mut policies, policy.num_actions() as u64);
        for row in policy.decisions() {
            for &p in row {
                put_f64(&mut policies, p);
            }
        }
    }

    let mut devices = Vec::new();
    put_u64(&mut devices, service.devices.len() as u64);
    for ((device, id), &policy) in service.devices.iter().zip(&service.ids).zip(&device_policy) {
        put_u64(&mut devices, id.0);
        put_u64(&mut devices, device.class as u64);
        put_u64(
            &mut devices,
            device.cluster.map_or(NO_CLUSTER, |c| c as u64),
        );
        put_u64(&mut devices, policy);
        if version >= 3 {
            put_estimator(&mut devices, &device.estimator);
        } else {
            put_legacy_estimator(&mut devices, &head, &device.estimator);
        }
        if version >= 2 {
            devices.push(match device.health {
                DeviceHealth::Healthy => 0,
                DeviceHealth::Degraded => 1,
                DeviceHealth::Quarantined => 2,
            });
            put_u32(&mut devices, device.strikes);
            put_u64(&mut devices, device.probation_left);
        }
    }

    let mut clusters = Vec::new();
    put_u64(&mut clusters, service.clusters.len() as u64);
    for (cluster, &policy) in service.clusters.iter().zip(&cluster_policy) {
        put_u64(&mut clusters, cluster.class as u64);
        put_u64(&mut clusters, cluster.members.len() as u64);
        for &m in &cluster.members {
            put_u64(&mut clusters, m as u64);
        }
        put_f64s(&mut clusters, &cluster.representative);
        if version < 3 {
            put_sr(&mut clusters, &head, &cluster.representative);
        }
        put_opt(&mut clusters, cluster.last_solved.as_deref(), put_f64s);
        put_u64(&mut clusters, policy);
        put_opt(&mut clusters, cluster.power, put_f64);
        put_u64(&mut clusters, cluster.since_solve);
        if version >= 2 {
            put_u32(&mut clusters, cluster.consecutive_holds);
            put_u64(&mut clusters, cluster.backoff_left);
        }
    }

    writer.write_all(MAGIC)?;
    writer.write_all(&version.to_le_bytes())?;
    for (tag, payload) in [
        (TAG_META, meta.as_slice()),
        (TAG_POLICIES, &policies),
        (TAG_DEVICES, &devices),
        (TAG_CLUSTERS, &clusters),
        (TAG_END, &[]),
    ] {
        // The frame is written in its three pieces and hashed as it
        // goes, never copied into one buffer.
        let mut crc = Crc32::new();
        for piece in [
            tag.to_le_bytes().as_slice(),
            &(payload.len() as u64).to_le_bytes(),
            payload,
        ] {
            writer.write_all(piece)?;
            crc.update(piece);
        }
        if version >= 2 {
            writer.write_all(&crc.finish().to_le_bytes())?;
        }
    }
    Ok(())
}

/// A version-3 device's estimator fields, read through the estimator's
/// borrowing accessors: nothing is copied out first.
fn put_estimator(buf: &mut Vec<u8>, estimator: &WindowedEstimator) {
    put_pairs(buf, estimator.counts());
    put_u64(buf, estimator.history() as u64);
    put_u64(buf, estimator.observed());
    let ring = estimator.ring_words();
    put_u64(buf, ring.len() as u64);
    for word in ring {
        put_u64(buf, word);
    }
    put_opt(buf, estimator.last_fit(), put_f64s);
    put_opt(buf, estimator.divergence(), put_f64);
    put_opt(buf, estimator.counts_at_fit(), |buf, counts| {
        put_pairs(buf, counts.iter().copied());
    });
}

/// A version-1/2 device's estimator fields: the fitted SR record first,
/// a byte per ring slice, the retired window weight and blend prior.
fn put_legacy_estimator(buf: &mut Vec<u8>, head: &[u8], estimator: &WindowedEstimator) {
    put_opt(buf, estimator.last_fit(), |buf, fit| put_sr(buf, head, fit));
    put_pairs(buf, estimator.counts());
    put_u64(buf, estimator.history() as u64);
    put_u64(buf, estimator.observed());
    let WindowKind::Sliding(window) = estimator.window();
    let held = estimator.observed().min(window as u64);
    put_u64(buf, held);
    let slices = estimator
        .ring_words()
        .flat_map(|word| (0..64).rev().map(move |bit| (word >> bit) & 1 == 1));
    for slice in slices.take(held as usize) {
        put_bool(buf, slice);
    }
    put_f64(buf, 1.0);
    put_opt(buf, estimator.last_fit(), put_f64s);
    put_opt(buf, estimator.divergence(), put_f64);
    put_bool(buf, false);
    put_opt(buf, estimator.counts_at_fit(), |buf, counts| {
        put_pairs(buf, counts.iter().copied());
    });
}

// ---------------------------------------------------------------------
// Reading.

pub(crate) fn read_snapshot(
    service: &mut FleetService,
    reader: &mut impl Read,
) -> Result<RestoreReport, SnapshotError> {
    // Buffer the whole stream first: every length field is then checked
    // against real bytes before any allocation, so a corrupted length
    // can never trigger a huge allocation or an unbounded read.
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let bytes = bytes.as_slice();
    let mut top = Cursor::new(bytes);
    let magic = top.take(8, "magic")?;
    if magic != MAGIC {
        return Err(format_err("bad magic (not a fleet snapshot)"));
    }
    let version = top.u32("version")?;
    if version > VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            newest: VERSION,
        });
    }
    if version < OLDEST_VERSION {
        return Err(format_err(format!(
            "snapshot version {version} predates the oldest supported ({OLDEST_VERSION})"
        )));
    }
    let mut sections: BTreeMap<u32, &[u8]> = BTreeMap::new();
    loop {
        let tag = top.array("section tag")?;
        let len = top.array("section length")?;
        let payload_len = usize::try_from(u64::from_le_bytes(len))
            .map_err(|_| format_err("section length overflows usize"))?;
        let payload = top.take(payload_len, "section payload")?;
        let tag = u32::from_le_bytes(tag);
        if version >= 2 {
            let found = top.u32("section checksum")?;
            let mut crc = Crc32::new();
            for piece in [tag.to_le_bytes().as_slice(), &len, payload] {
                crc.update(piece);
            }
            let expected = crc.finish();
            if found != expected {
                return Err(SnapshotError::ChecksumMismatch {
                    tag,
                    expected,
                    found,
                });
            }
        }
        if tag == TAG_END {
            if payload_len != 0 {
                return Err(format_err("end marker carries a payload"));
            }
            break;
        }
        if sections.insert(tag, payload).is_some() {
            return Err(format_err(format!("duplicate section tag {tag}")));
        }
    }
    if top.pos != bytes.len() {
        return Err(format_err(format!(
            "{} trailing bytes after the end marker",
            bytes.len() - top.pos
        )));
    }
    let section = |tag: u32, name: &str| -> Result<&[u8], SnapshotError> {
        sections
            .get(&tag)
            .copied()
            .ok_or_else(|| format_err(format!("missing {name} section")))
    };

    // META: epoch, id bookkeeping, class fingerprints.
    let meta = section(TAG_META, "META")?;
    let mut cur = Cursor::new(meta);
    let epoch = cur.u64("epoch")?;
    let next_id = cur.u64("next id")?;
    let nclasses = cur.len("class count", 16)?;
    if nclasses != service.classes.len() {
        return Err(mismatch_err(format!(
            "snapshot has {nclasses} classes, this service has {}",
            service.classes.len()
        )));
    }
    for (c, class) in service.classes.iter().enumerate() {
        let states = cur.u64("class fingerprint")?;
        let actions = cur.u64("class fingerprint")?;
        if states != class.base_policy.num_states() as u64
            || actions != class.base_policy.num_actions() as u64
        {
            return Err(mismatch_err(format!(
                "class {c} LP shape differs ({states}x{actions} in the snapshot, {}x{} here)",
                class.base_policy.num_states(),
                class.base_policy.num_actions()
            )));
        }
    }
    cur.finish("META")?;

    // POLICIES: the deduplicated table.
    let policies = section(TAG_POLICIES, "POLICIES")?;
    let mut cur = Cursor::new(policies);
    let npolicies = cur.len("policy count", 16)?;
    let mut table = Vec::with_capacity(npolicies);
    for _ in 0..npolicies {
        let states = cur.len("policy states", 8)?;
        let actions = cur.len("policy actions", 8)?;
        let mut rows = Vec::with_capacity(states);
        for _ in 0..states {
            let mut row = Vec::with_capacity(actions);
            for _ in 0..actions {
                row.push(cur.f64("policy probability")?);
            }
            rows.push(row);
        }
        let policy = RandomizedPolicy::new(rows).map_err(DpmError::from)?;
        table.push(Arc::new(policy));
    }
    cur.finish("POLICIES")?;

    // DEVICES: estimators, fits, cluster assignments, ids. Every device
    // starts from a clone of one empty estimator: the estimator
    // configuration is the fleet's, whatever the class.
    let head = if version < 3 {
        sr_head(service)?
    } else {
        Vec::new()
    };
    let empty = service.config.base.estimator()?;
    let WindowKind::Sliding(window) = empty.window();
    let devices_bytes = section(TAG_DEVICES, "DEVICES")?;
    let mut cur = Cursor::new(devices_bytes);
    let ndevices = cur.len("device count", 1)?;
    let mut devices = Vec::with_capacity(ndevices);
    let mut ids: Vec<DeviceId> = Vec::with_capacity(ndevices);
    for d in 0..ndevices {
        let id = cur.u64("device id")?;
        if id >= next_id {
            return Err(format_err(format!(
                "device id {id} not below the next-id watermark {next_id}"
            )));
        }
        // The service finds ids by binary search: they must ascend.
        if let Some(&DeviceId(previous)) = ids.last() {
            if id <= previous {
                return Err(format_err(format!(
                    "device id {id} does not ascend past the previous id {previous}"
                )));
            }
        }
        ids.push(DeviceId(id));
        let class = usize::try_from(cur.u64("device class")?)
            .ok()
            .filter(|&c| c < service.classes.len())
            .ok_or_else(|| mismatch_err(format!("device {d} references an unknown class")))?;
        let cluster_raw = cur.u64("device cluster")?;
        let cluster = if cluster_raw == NO_CLUSTER {
            None
        } else {
            Some(
                usize::try_from(cluster_raw)
                    .map_err(|_| format_err(format!("device {d} cluster index overflows usize")))?,
            )
        };
        let policy = usize::try_from(cur.u64("device policy")?)
            .ok()
            .and_then(|p| table.get(p))
            .ok_or_else(|| format_err(format!("device {d} references an unknown policy")))?;
        let state = if version >= 3 {
            read_estimator(&mut cur)?
        } else {
            read_legacy_estimator(&mut cur, &head, window as u64, d)?
        };
        let (health, strikes, probation_left) = if version >= 2 {
            let health = match cur.u8("device health")? {
                0 => DeviceHealth::Healthy,
                1 => DeviceHealth::Degraded,
                2 => DeviceHealth::Quarantined,
                b => {
                    return Err(format_err(format!(
                        "device {d} has unknown health byte {b}"
                    )))
                }
            };
            (
                health,
                cur.u32("device strikes")?,
                cur.u64("device probation")?,
            )
        } else {
            (DeviceHealth::Healthy, 0, 0)
        };
        let mut estimator = empty.clone();
        estimator.import_state(state)?;
        devices.push(Device {
            cluster,
            health,
            strikes,
            probation_left,
            ..Device::new(class, estimator, Arc::clone(policy))
        });
    }
    cur.finish("DEVICES")?;

    // CLUSTERS: membership and models; sessions rehydrate by forking
    // the class base and replaying one warm solve of the last-solved
    // model.
    let clusters_bytes = section(TAG_CLUSTERS, "CLUSTERS")?;
    let mut cur = Cursor::new(clusters_bytes);
    let nclusters = cur.len("cluster count", 1)?;
    let mut clusters = Vec::with_capacity(nclusters);
    let mut report = RestoreReport {
        devices: ndevices,
        clusters: nclusters,
        replayed_solves: 0,
        warm_reloads: 0,
        cold_reloads: 0,
        pivots: 0,
    };
    for c in 0..nclusters {
        let class = usize::try_from(cur.u64("cluster class")?)
            .ok()
            .filter(|&k| k < service.classes.len())
            .ok_or_else(|| mismatch_err(format!("cluster {c} references an unknown class")))?;
        let nmembers = cur.len("cluster members", 8)?;
        if nmembers == 0 {
            return Err(format_err(format!("cluster {c} has no members")));
        }
        let mut members: Vec<usize> = Vec::with_capacity(nmembers);
        for _ in 0..nmembers {
            let m = usize::try_from(cur.u64("cluster member")?)
                .ok()
                .filter(|&m| m < ndevices)
                .ok_or_else(|| format_err(format!("cluster {c} lists an out-of-range member")))?;
            if members.last().is_some_and(|&previous| m <= previous) {
                return Err(format_err(format!(
                    "cluster {c}'s member {m} does not ascend past the previous member"
                )));
            }
            members.push(m);
        }
        let device_class = &service.classes[class];
        let representative = cur.f64s("cluster representative")?;
        let states = device_class.extractor.num_states();
        if representative.len() != states * states {
            return Err(mismatch_err(format!(
                "cluster {c}'s representative has {} entries for a {states}x{states} chain",
                representative.len()
            )));
        }
        if version < 3
            && !is_sr_record_of(
                cur.sr_record("cluster representative model")?,
                &head,
                &representative,
            )
        {
            return Err(mismatch_err(format!(
                "cluster {c}'s representative model and its representative disagree"
            )));
        }
        let last_solved = cur.opt("cluster last-solved model", Cursor::f64s)?;
        let policy = usize::try_from(cur.u64("cluster policy")?)
            .ok()
            .and_then(|p| table.get(p))
            .ok_or_else(|| format_err(format!("cluster {c} references an unknown policy")))?;
        let power = cur.opt("cluster power", Cursor::f64)?;
        let since_solve = cur.u64("cluster cooldown")?;
        let (consecutive_holds, backoff_left) = if version >= 2 {
            (cur.u32("cluster holds")?, cur.u64("cluster backoff")?)
        } else {
            (0, 0)
        };

        let session = match last_solved.as_ref() {
            None => device_class.base.fork()?,
            Some(solved) => {
                let (session, kind, solution) = device_class.rebuild(solved)?;
                match kind {
                    ReloadKind::Warm => report.warm_reloads += 1,
                    ReloadKind::Cold => report.cold_reloads += 1,
                }
                report.replayed_solves += 1;
                report.pivots += solution.solve_report().iterations;
                session
            }
        };
        let policy = Arc::clone(policy);
        clusters.push(Cluster {
            last_solved,
            power,
            since_solve,
            consecutive_holds,
            backoff_left,
            ..Cluster::new(class, members, representative, session, policy)
        });
    }
    cur.finish("CLUSTERS")?;

    // Cross-check membership against device assignments.
    for (c, cluster) in clusters.iter().enumerate() {
        for &m in &cluster.members {
            if devices[m].cluster != Some(c) {
                return Err(mismatch_err(format!(
                    "cluster {c} lists device {m}, which is assigned elsewhere"
                )));
            }
            if devices[m].class != cluster.class {
                return Err(mismatch_err(format!(
                    "cluster {c} and its member {m} disagree on the class"
                )));
            }
        }
    }
    let assigned: usize = devices.iter().filter(|d| d.cluster.is_some()).count();
    let membered: usize = clusters.iter().map(|cl| cl.members.len()).sum();
    if assigned != membered {
        return Err(mismatch_err(format!(
            "{assigned} devices claim a cluster but clusters list {membered} members"
        )));
    }
    for device in &devices {
        if let Some(c) = device.cluster {
            if c >= clusters.len() {
                return Err(mismatch_err(format!(
                    "a device references cluster {c}, only {} exist",
                    clusters.len()
                )));
            }
        }
    }

    // Commit — everything validated, swap the state in.
    service.devices = devices;
    service.clusters = clusters;
    service.epoch = epoch;
    service.ids = ids;
    service.next_id = next_id;
    Ok(report)
}

/// A version-3 device's estimator fields.
fn read_estimator(cur: &mut Cursor<'_>) -> Result<EstimatorState, SnapshotError> {
    Ok(EstimatorState {
        counts: cur.pairs("estimator counts")?,
        state: usize::try_from(cur.u64("estimator state")?)
            .map_err(|_| format_err("estimator state overflows usize"))?,
        observed: cur.u64("estimator observed")?,
        ring: cur.u64s("estimator ring")?,
        last_fit: cur.opt("estimator last fit", Cursor::f64s)?,
        divergence: cur.opt("estimator divergence", Cursor::f64)?,
        counts_at_fit: cur.opt("estimator counts at fit", Cursor::pairs)?,
    })
}

/// A version-1/2 device's estimator fields (see
/// [`put_legacy_estimator`]) for an estimator of `window` slices, its
/// fitted SR record checked against the last fit.
fn read_legacy_estimator(
    cur: &mut Cursor<'_>,
    head: &[u8],
    window: u64,
    d: usize,
) -> Result<EstimatorState, SnapshotError> {
    let fit = cur.opt("device fit", Cursor::sr_record)?;
    let counts = cur.pairs("estimator counts")?;
    let state = usize::try_from(cur.u64("estimator state")?)
        .map_err(|_| format_err("estimator state overflows usize"))?;
    let observed = cur.u64("estimator observed")?;
    let (ring, slices) = cur.byte_ring("estimator ring")?;
    let held = observed.min(window);
    if slices as u64 != held {
        return Err(mismatch_err(format!(
            "device {d}'s ring of {slices} slices after {observed} should hold {held}"
        )));
    }
    cur.f64("estimator weight")?;
    let last_fit = cur.opt("estimator last fit", Cursor::f64s)?;
    let divergence = cur.opt("estimator divergence", Cursor::f64)?;
    if cur.opt("estimator blend prior", Cursor::pairs)?.is_some() {
        return Err(mismatch_err(format!(
            "device {d} carries a blend prior: it was written by a fleet that \
             blended consecutive fits"
        )));
    }
    let counts_at_fit = cur.opt("estimator counts at fit", Cursor::pairs)?;
    let agree = match (fit, &last_fit) {
        (None, None) => true,
        (Some(record), Some(flat)) => is_sr_record_of(record, head, flat),
        _ => false,
    };
    if !agree {
        return Err(mismatch_err(format!(
            "device {d}'s fitted model and its estimator's last fit disagree"
        )));
    }
    Ok(EstimatorState {
        counts,
        state,
        observed,
        ring,
        last_fit,
        divergence,
        counts_at_fit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ClassId;
    use crate::{AdaptiveConfig, FleetConfig, FleetReport};

    /// A small service with one toy class and two devices — enough
    /// state to exercise every snapshot section.
    fn service() -> FleetService {
        let config = FleetConfig::new().adaptive(
            AdaptiveConfig::new()
                .memory(1)
                .smoothing(0.5)
                .horizon(2_000.0)
                .window(WindowKind::Sliding(64)),
        );
        let mut service = FleetService::new(config);
        let class = service
            .register_class(&dpm_systems::toy::example_system().expect("toy system"))
            .expect("class registers");
        for _ in 0..2 {
            service.add_device(class).expect("device adds");
        }
        service
    }

    /// The byte-at-a-time CRC-32, the reference slice-by-8 is checked
    /// against: table 0 alone, one lookup per byte.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC_TABLES[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_crc() {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC3C3);
        let mut buffer = vec![0u8; 1 << 20];
        for chunk in buffer.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        // Every length up to nine words from each of eight alignments.
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start}, length {len}"
                );
            }
        }
        assert_eq!(crc32(&buffer), crc32_bytewise(&buffer), "1 MiB");
        // Fed in uneven pieces, the running CRC is the one-shot CRC.
        let mut crc = Crc32::new();
        let mut rest = &buffer[..100_003];
        let mut piece = 1;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            crc.update(head);
            rest = tail;
            piece = piece * 7 % 61 + 1;
        }
        assert_eq!(crc.finish(), crc32_bytewise(&buffer[..100_003]));
    }

    /// Runs `epochs` epochs feeding every device the same periodic
    /// stream, so estimators fill, fit and cluster.
    fn run(service: &mut FleetService, epochs: usize) {
        let stream: Vec<u32> = (0..48).map(|i| u32::from(i % 3 == 0)).collect();
        for _ in 0..epochs {
            let arrivals: Vec<_> = service
                .device_ids()
                .iter()
                .map(|&id| (id, stream.clone()))
                .collect();
            service.run_epoch(&arrivals).expect("epoch runs");
        }
    }

    fn checkpoint_bytes(service: &FleetService) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_snapshot(service, &mut bytes).expect("writes");
        bytes
    }

    fn versioned_bytes(service: &FleetService, version: u32) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_snapshot_versioned(service, &mut bytes, version).expect("writes");
        bytes
    }

    /// Re-frames a version-2 or -3 snapshot with the payload of its section
    /// `section` (a tag) passed through `edit`, recomputing every CRC.
    fn edit_section(snapshot: &[u8], section: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = snapshot[..12].to_vec();
        let mut cur = Cursor::new(&snapshot[12..]);
        let mut edit = Some(edit);
        loop {
            let tag = cur.u32("tag").expect("tag");
            let len = cur.u64("length").expect("length") as usize;
            let mut payload = cur.take(len, "payload").expect("payload").to_vec();
            cur.u32("checksum").expect("checksum");
            if tag == section {
                (edit.take().expect("one section of the tag"))(&mut payload);
            }
            let mut frame = tag.to_le_bytes().to_vec();
            frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            frame.extend_from_slice(&payload);
            out.extend_from_slice(&frame);
            out.extend_from_slice(&crc32(&frame).to_le_bytes());
            if tag == TAG_END {
                return out;
            }
        }
    }

    /// The offset of the first device record's estimator last-fit flag
    /// in a version-2 DEVICES payload, found by reading the fields
    /// before it.
    fn last_fit_offset(devices: &[u8]) -> usize {
        let mut cur = Cursor::new(devices);
        fn read<T>(field: Result<T, SnapshotError>) -> T {
            field.expect("device record decodes")
        }
        read(cur.u64("device count"));
        for what in ["id", "class", "cluster", "policy"] {
            read(cur.u64(what));
        }
        read(cur.opt("fit", Cursor::sr_record));
        read(cur.pairs("counts"));
        read(cur.u64("state"));
        read(cur.u64("observed"));
        for _ in 0..read(cur.len("ring", 1)) {
            read(cur.bool("ring bit"));
        }
        read(cur.f64("weight"));
        cur.pos
    }

    /// The offset of the first device record's blend-prior flag in a
    /// version-2 DEVICES payload.
    fn blend_prior_offset(devices: &[u8]) -> usize {
        let mut cur = Cursor::new(devices);
        cur.pos = last_fit_offset(devices);
        cur.opt("last fit", Cursor::f64s).expect("last fit decodes");
        cur.opt("divergence", Cursor::f64)
            .expect("divergence decodes");
        cur.pos
    }

    #[test]
    fn version_1_snapshots_remain_readable() {
        let mut source = service();
        run(&mut source, 3);
        let v1 = versioned_bytes(&source, 1);
        let mut target = service();
        let report = read_snapshot(&mut target, &mut v1.as_slice()).expect("v1 restores");
        assert_eq!(report.devices, 2);
        for d in 0..2 {
            assert_eq!(
                target.devices[d].health,
                DeviceHealth::Healthy,
                "v1 snapshots carry no health: devices default to Healthy"
            );
            assert_eq!(target.devices[d].strikes, 0);
        }
        assert_eq!(
            versioned_bytes(&target, 1),
            v1,
            "a v1 snapshot round-trips byte for byte"
        );

        // A non-blending fleet's v2 and v3 snapshots round-trip byte for
        // byte, and restore the same service.
        let v2 = versioned_bytes(&source, 2);
        let v3 = checkpoint_bytes(&source);
        let mut target = service();
        read_snapshot(&mut target, &mut v2.as_slice()).expect("v2 restores");
        assert_eq!(versioned_bytes(&target, 2), v2);
        assert_eq!(checkpoint_bytes(&target), v3);
        read_snapshot(&mut target, &mut v3.as_slice()).expect("v3 restores");
        assert_eq!(checkpoint_bytes(&target), v3);

        // A device record carrying a blend prior was written by a fleet
        // that blended its fits: refused, and the target is untouched.
        let blended = edit_section(&v2, TAG_DEVICES, |devices| {
            let at = blend_prior_offset(devices);
            assert_eq!(devices[at], 0, "the writer emits no blend prior");
            devices[at] = 1;
            let mut prior = Vec::new();
            put_pairs(&mut prior, [[1.0, 2.0], [3.0, 4.0]].into_iter());
            devices.splice(at + 1..at + 1, prior);
        });
        run(&mut target, 1);
        let before = checkpoint_bytes(&target);
        let err = read_snapshot(&mut target, &mut blended.as_slice())
            .expect_err("a blend prior must be refused");
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        assert_eq!(
            checkpoint_bytes(&target),
            before,
            "a refused snapshot changed the service"
        );
        // The same bytes without the prior still restore.
        let unblended = edit_section(&v2, TAG_DEVICES, |_| {});
        assert_eq!(unblended, v2);
        read_snapshot(&mut target, &mut unblended.as_slice()).expect("v2 restores");
    }

    /// A fleet of 36 devices of the toy class whose windows end in every
    /// state the v3 codec must carry: devices added in three waves (so
    /// windows hold fewer slices than they can, and the ring heads sit
    /// off word boundaries), one never fed (no fit, an empty ring), one
    /// fed a single slice, streams in two regimes (several clusters) and
    /// a removal mid-run.
    fn varied_fleet() -> (FleetService, Vec<Vec<u32>>) {
        let mut service = FleetService::new(
            FleetConfig::new().adaptive(
                AdaptiveConfig::new()
                    .memory(1)
                    .smoothing(0.5)
                    .horizon(2_000.0)
                    .window(WindowKind::Sliding(200)),
            ),
        );
        let class = service
            .register_class(&dpm_systems::toy::example_system().expect("toy system"))
            .expect("class registers");
        let streams: Vec<Vec<u32>> = (0..4)
            .map(|epoch| {
                (0..37)
                    .map(|i| u32::from((i + epoch) % (2 + epoch % 3) == 0))
                    .collect()
            })
            .collect();
        for epoch in 0..6 {
            if epoch % 2 == 0 {
                for _ in 0..12 {
                    service.add_device(class).expect("device adds");
                }
            }
            if epoch == 3 {
                let third = service.device_ids()[2];
                service.remove_device(third).expect("device removes");
            }
            let arrivals: Vec<_> = service
                .device_ids()
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != 0)
                .map(|(d, &id)| match d {
                    1 => (id, vec![1]),
                    _ => (id, streams[(d + epoch) % streams.len()].clone()),
                })
                .collect();
            service.run_epoch(&arrivals).expect("epoch runs");
        }
        (service, streams)
    }

    /// Runs three epochs on `service` and returns their reports.
    fn next_reports(service: &mut FleetService, streams: &[Vec<u32>]) -> Vec<FleetReport> {
        (0..3)
            .map(|epoch| {
                let arrivals: Vec<_> = service
                    .device_ids()
                    .iter()
                    .enumerate()
                    .map(|(d, &id)| (id, streams[(d * 3 + epoch) % streams.len()].clone()))
                    .collect();
                service.run_epoch(&arrivals).expect("epoch runs")
            })
            .collect()
    }

    #[test]
    fn every_version_restores_to_the_same_continuation() {
        let (source, streams) = varied_fleet();
        let rings: Vec<usize> = source
            .devices
            .iter()
            .map(|d| d.estimator.ring_words().len())
            .collect();
        assert!(rings.contains(&0) && rings.contains(&1) && rings.contains(&4));
        assert!(
            source.clusters.len() > 1,
            "{} clusters",
            source.clusters.len()
        );
        let restored = |bytes: &[u8]| {
            let (mut target, _) = varied_fleet();
            read_snapshot(&mut target, &mut &bytes[..]).expect("restores");
            target
        };
        let v3 = checkpoint_bytes(&source);
        let mut from_v3 = restored(&v3);
        assert_eq!(checkpoint_bytes(&from_v3), v3);
        let expected = next_reports(&mut from_v3, &streams);
        for version in [1, 2] {
            let mut target = restored(&versioned_bytes(&source, version));
            assert_eq!(
                checkpoint_bytes(&target),
                v3,
                "v{version} restores the service v3 does"
            );
            assert_eq!(
                next_reports(&mut target, &streams),
                expected,
                "v{version}: the next three epochs"
            );
        }
        // The v3 snapshot drops the SR records, a byte per ring slice
        // and the retired fields.
        let v2 = versioned_bytes(&source, 2);
        assert!(v3.len() < v2.len(), "v3 {} vs v2 {}", v3.len(), v2.len());
    }

    #[test]
    fn a_ring_padding_bit_is_refused() {
        let (source, _) = varied_fleet();
        let v3 = checkpoint_bytes(&source);
        // Device 1 was fed one slice per epoch: its ring is one word of
        // a few slices, the rest padding.
        let padded = edit_section(&v3, TAG_DEVICES, |devices| {
            let mut cur = Cursor::new(devices);
            let read = |field: Result<u64, SnapshotError>| field.expect("device decodes");
            read(cur.u64("device count"));
            for _ in 0..2 {
                for what in ["id", "class", "cluster", "policy"] {
                    read(cur.u64(what));
                }
                cur.pairs("counts").expect("counts decode");
                read(cur.u64("state"));
                let observed = read(cur.u64("observed"));
                let words = read(cur.u64("ring words"));
                if words == 1 {
                    assert!(observed < 64, "device 1 holds {observed} slices");
                    let last = cur.pos + 7;
                    devices[last] |= 1;
                    return;
                }
                cur.take(8 * words as usize, "ring").expect("ring decodes");
                cur.opt("last fit", Cursor::f64s).expect("fit decodes");
                cur.opt("divergence", Cursor::f64)
                    .expect("divergence decodes");
                cur.opt("counts at fit", Cursor::pairs)
                    .expect("counts decode");
                cur.take(13, "health").expect("health decodes");
            }
            panic!("no device holds a one-word ring");
        });
        let (mut target, _) = varied_fleet();
        let before = checkpoint_bytes(&target);
        let err = read_snapshot(&mut target, &mut padded.as_slice())
            .expect_err("a padding bit must be refused");
        assert!(
            matches!(err, SnapshotError::Dpm(DpmError::BadConfiguration { .. })),
            "{err}"
        );
        assert_eq!(
            checkpoint_bytes(&target),
            before,
            "the refusal changed the service"
        );
        read_snapshot(&mut target, &mut v3.as_slice()).expect("the untouched snapshot restores");
    }

    #[test]
    fn a_fit_that_disagrees_with_its_estimator_is_refused() {
        let mut source = service();
        run(&mut source, 3);
        let v2 = versioned_bytes(&source, 2);
        // One bit of the estimator's last fit flipped, and the last fit
        // dropped while the fitted model stays.
        let flipped = edit_section(&v2, TAG_DEVICES, |devices| {
            let at = last_fit_offset(devices);
            assert_eq!(devices[at], 1, "the first device has fitted");
            devices[at + 9] ^= 1;
        });
        let dropped = edit_section(&v2, TAG_DEVICES, |devices| {
            let at = last_fit_offset(devices);
            let mut len = [0u8; 8];
            len.copy_from_slice(&devices[at + 1..at + 9]);
            let entries = u64::from_le_bytes(len) as usize;
            devices.splice(at..at + 9 + 8 * entries, [0]);
        });
        let mut target = service();
        run(&mut target, 1);
        let before = checkpoint_bytes(&target);
        for (label, bytes) in [("flipped", flipped), ("dropped", dropped)] {
            let err = read_snapshot(&mut target, &mut bytes.as_slice())
                .expect_err("a disagreeing fit must be refused");
            assert!(
                matches!(err, SnapshotError::Mismatch { .. }),
                "{label}: {err}"
            );
            assert_eq!(
                checkpoint_bytes(&target),
                before,
                "{label} changed the service"
            );
        }
        read_snapshot(&mut target, &mut v2.as_slice()).expect("the untouched snapshot restores");
    }

    #[test]
    fn device_ids_must_ascend() {
        // Ids 0 and 1 stay, id 2 was added and retired: next id is 3.
        let mut source = service();
        let class = ClassId(0);
        let retired = source.add_device(class).expect("device adds");
        source.remove_device(retired).expect("device removes");
        let v2 = checkpoint_bytes(&source);
        let mut target = service();
        read_snapshot(&mut target, &mut v2.as_slice()).expect("ascending ids restore");
        for (label, first) in [("descending", 2u64), ("duplicate", 1)] {
            let bytes = edit_section(&v2, TAG_DEVICES, |devices| {
                devices[8..16].copy_from_slice(&first.to_le_bytes());
            });
            let err = read_snapshot(&mut target, &mut bytes.as_slice())
                .expect_err("ids that do not ascend must be refused");
            assert!(
                matches!(err, SnapshotError::Format { .. }),
                "{label}: {err}"
            );
        }
    }

    /// A service of six devices of which only the fourth and the sixth
    /// (indices 3 and 5) have been fed, alike: they form cluster 0
    /// alone.
    fn two_of_six_clustered() -> FleetService {
        let mut service = service();
        for _ in 0..4 {
            service.add_device(ClassId(0)).expect("device adds");
        }
        let ids = service.device_ids().to_vec();
        let stream: Vec<u32> = (0..48).map(|i| u32::from(i % 3 == 0)).collect();
        service
            .run_epoch(&[(ids[3], stream.clone()), (ids[5], stream)])
            .expect("epoch runs");
        assert_eq!(service.clusters(), 1);
        assert_eq!(service.cluster_of(ids[3]), Some(0));
        assert_eq!(service.cluster_of(ids[5]), Some(0));
        service
    }

    #[test]
    fn cluster_members_must_strictly_ascend() {
        let v2 = checkpoint_bytes(&two_of_six_clustered());
        // Cluster 0 lists device 3 twice, or its two members descending.
        // Devices 3 and 5 both still claim it, so the membership counts
        // agree; a list with device 3 twice would leave device 5
        // pointing at a dropped cluster once device 3 is removed.
        for (label, members) in [("repeated", [3u64, 3]), ("descending", [5, 3])] {
            let bytes = edit_section(&v2, TAG_CLUSTERS, |clusters| {
                // Cluster count, class, member count, then the members.
                let listed = [3u64.to_le_bytes(), 5u64.to_le_bytes()].concat();
                assert_eq!(clusters[24..40], listed, "cluster 0 lists devices 3 and 5");
                let edited = members.map(u64::to_le_bytes).concat();
                clusters[24..40].copy_from_slice(&edited);
            });
            let mut target = service();
            let before = checkpoint_bytes(&target);
            let err = read_snapshot(&mut target, &mut bytes.as_slice())
                .expect_err("members that do not ascend must be refused");
            assert!(
                matches!(err, SnapshotError::Format { .. }),
                "{label}: {err}"
            );
            assert_eq!(
                checkpoint_bytes(&target),
                before,
                "{label} changed the service"
            );
        }
        let mut target = service();
        read_snapshot(&mut target, &mut v2.as_slice()).expect("the untouched snapshot restores");
        assert_eq!(checkpoint_bytes(&target), v2);
    }

    #[test]
    fn a_cluster_model_that_disagrees_with_its_representative_is_refused() {
        let v2 = versioned_bytes(&two_of_six_clustered(), 2);
        // Row 1 of cluster 0's representative-model record, its two
        // probabilities swapped: still a stochastic matrix, but not the
        // representative's model.
        let swapped = edit_section(&v2, TAG_CLUSTERS, |clusters| {
            let mut cur = Cursor::new(clusters);
            let read = |field: Result<u64, SnapshotError>| field.expect("cluster decodes");
            read(cur.u64("cluster count"));
            read(cur.u64("class"));
            for _ in 0..read(cur.u64("member count")) {
                read(cur.u64("member"));
            }
            cur.f64s("representative").expect("representative decodes");
            let end = cur.pos + cur.sr_record("model").expect("model decodes").len();
            // The record ends with the 2 x 2 matrix; row 1 is its last
            // 16 bytes.
            let (p10, p11) = clusters[end - 16..end].split_at_mut(8);
            assert_ne!(p10, p11, "row 1 is not uniform");
            p10.swap_with_slice(p11);
        });
        let mut target = service();
        let before = checkpoint_bytes(&target);
        let err = read_snapshot(&mut target, &mut swapped.as_slice())
            .expect_err("a cluster model off its representative must be refused");
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        assert_eq!(
            checkpoint_bytes(&target),
            before,
            "the refusal changed the service"
        );
        read_snapshot(&mut target, &mut v2.as_slice()).expect("the untouched snapshot restores");
    }

    #[test]
    fn newer_versions_are_rejected_not_misparsed() {
        let source = service();
        let mut snapshot = Vec::new();
        write_snapshot(&source, &mut snapshot).expect("writes");
        snapshot[8..12].copy_from_slice(&4u32.to_le_bytes());
        let mut target = service();
        let err = read_snapshot(&mut target, &mut snapshot.as_slice())
            .expect_err("a version-4 snapshot must be refused");
        assert!(
            matches!(
                err,
                SnapshotError::UnsupportedVersion { found: 4, newest } if newest == VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn any_flipped_byte_is_a_checksum_mismatch() {
        let mut source = service();
        run(&mut source, 3);
        for version in [2, VERSION] {
            let snapshot = versioned_bytes(&source, version);
            // Flip one byte in every region past the header: tag,
            // length, payload and the stored CRC itself all must be
            // caught.
            for at in [12, 20, 40, snapshot.len() / 2, snapshot.len() - 1] {
                let mut damaged = snapshot.clone();
                damaged[at] ^= 0x40;
                let mut target = service();
                let err = read_snapshot(&mut target, &mut damaged.as_slice())
                    .expect_err("a flipped byte must be rejected");
                assert!(
                    matches!(
                        err,
                        SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated { .. }
                    ),
                    "v{version}, flip at {at}: {err}"
                );
            }
        }
    }
}
