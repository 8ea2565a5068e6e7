//! Connection admission control: the per-port table registry and the
//! all-or-nothing multi-hop reservation transaction.
//!
//! "Each request is studied in each node in its path, and it is only
//! accepted if there are available resources."

use crate::connection::HopReservation;
use iba_core::{
    AllocatorKind, Distance, HighPriorityTable, SequenceId, ServiceLevel, TableError, VirtualLane,
    Weight, MAX_TABLE_WEIGHT,
};
use iba_sim::NodeId;

/// Identifies one output port in the fabric.
///
/// Ordered `(node, port)` with [`NodeId`]'s canonical order (switches
/// before hosts). [`PortTables`] iterates its tables in exactly this
/// order, so everything that walks tables — audits, recovery,
/// reports — sees it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortKey {
    /// Owning node.
    pub node: NodeId,
    /// Output port number.
    pub port: u8,
}

impl PortKey {
    /// A stable 64-bit code for this port — independent of process,
    /// hasher and shard count. Keys per-table RNG sub-streams and
    /// assigns ports to admission-service shards.
    #[must_use]
    pub fn stable_code(self) -> u64 {
        let (tag, idx) = match self.node {
            NodeId::Switch(i) => (0u64, u64::from(i)),
            NodeId::Host(i) => (1u64, u64::from(i)),
        };
        (tag << 32) | (idx << 8) | u64::from(self.port)
    }
}

/// Why a request was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// A hop's table had no free sequence for the distance.
    NoFreeSequence(PortKey),
    /// A hop's reservation cap (the 80% QoS share) was hit.
    CapacityExceeded(PortKey),
    /// The request is too large for any single sequence.
    RequestTooLarge,
    /// The request was malformed (zero weight or a stale sequence id).
    InvalidRequest,
    /// Shed by the admission service's bounded-queue load-shedding
    /// ladder before any table was consulted.
    Overloaded,
}

impl RejectReason {
    /// The reason as an `iba-obs` [`iba_obs::RejectKind`] (the port
    /// detail is dropped; only the category is metered).
    #[must_use]
    pub fn kind(&self) -> iba_obs::RejectKind {
        match self {
            RejectReason::NoFreeSequence(_) => iba_obs::RejectKind::NoFreeSequence,
            RejectReason::CapacityExceeded(_) => iba_obs::RejectKind::CapacityExceeded,
            RejectReason::RequestTooLarge => iba_obs::RejectKind::RequestTooLarge,
            RejectReason::InvalidRequest => iba_obs::RejectKind::Invalid,
            RejectReason::Overloaded => iba_obs::RejectKind::Overloaded,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NoFreeSequence(k) => {
                write!(f, "no free sequence at {:?} port {}", k.node, k.port)
            }
            RejectReason::CapacityExceeded(k) => {
                write!(f, "reservation cap reached at {:?} port {}", k.node, k.port)
            }
            RejectReason::RequestTooLarge => f.write_str("request exceeds one sequence"),
            RejectReason::InvalidRequest => f.write_str("malformed admission request"),
            RejectReason::Overloaded => f.write_str("admission queue overloaded"),
        }
    }
}

/// A release that did not match a prior admission: the hop's table
/// rejected it (stale sequence id or weight mismatch). Returned instead
/// of panicking so a damaged or repaired table degrades gracefully —
/// the reservation may have been evicted by a repair pass between admit
/// and release.
///
/// `key`/`error` name the **first** failing hop (in release order);
/// `failures` lists every hop that failed, so a multi-hop release that
/// goes wrong at several ports loses no diagnostics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReleaseError {
    /// Port whose table rejected the release (first failure).
    pub key: PortKey,
    /// The underlying table error of the first failure.
    pub error: TableError,
    /// Every failed hop in release order (downstream-first), first
    /// failure included. Never empty.
    pub failures: Vec<(PortKey, TableError)>,
}

impl std::fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "release failed at {:?} port {}: {}",
            self.key.node, self.key.port, self.error
        )?;
        if self.failures.len() > 1 {
            write!(f, " (+{} more failed hops)", self.failures.len() - 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for ReleaseError {}

/// One node kind's tables: `rows[node][port]`, grown on first touch.
type NodeRows = Vec<Vec<Option<HighPriorityTable>>>;

/// The registry of high-priority tables, one per output port, created
/// lazily with a shared configuration.
///
/// Tables live densely by port: switch rows first, then host rows,
/// each indexed by node index and then port number, grown on first
/// touch. A hop's table is two index operations away, and walking the
/// rows in storage order yields the canonical [`PortKey`] order.
#[derive(Clone)]
pub struct PortTables {
    /// `[switch rows, host rows]`, in [`NodeId`]'s variant order.
    nodes: [NodeRows; 2],
    allocator: AllocatorKind,
    capacity_limit: Weight,
}

/// Row set and node index of a node: switches in `nodes[0]`, hosts in
/// `nodes[1]`.
fn locate(node: NodeId) -> (usize, usize) {
    match node {
        NodeId::Switch(i) => (0, usize::from(i)),
        NodeId::Host(i) => (1, usize::from(i)),
    }
}

/// Inverse of [`locate`] plus the port.
fn port_key(kind: usize, node: usize, port: usize) -> PortKey {
    // Rows are only ever created by `locate`-ing a `u16` node index and
    // a `u8` port, so the narrowing casts are lossless.
    let idx = node as u16;
    PortKey {
        node: if kind == 0 {
            NodeId::Switch(idx)
        } else {
            NodeId::Host(idx)
        },
        port: port as u8,
    }
}

/// An empty table with a registry's configuration.
fn fresh_table(allocator: AllocatorKind, capacity_limit: Weight) -> HighPriorityTable {
    let mut t = HighPriorityTable::with_allocator(allocator);
    t.set_capacity_limit(capacity_limit);
    t
}

/// Formats exactly as the derived `Debug` of the earlier
/// `BTreeMap<PortKey, HighPriorityTable>` registry did, so table
/// digests taken from this output stay comparable across versions.
impl std::fmt::Debug for PortTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct Tables<'a>(&'a PortTables);
        impl std::fmt::Debug for Tables<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_map().entries(self.0.tables()).finish()
            }
        }
        f.debug_struct("PortTables")
            .field("tables", &Tables(self))
            .field("allocator", &self.allocator)
            .field("capacity_limit", &self.capacity_limit)
            .finish()
    }
}

impl PortTables {
    /// Registry whose tables use the paper's allocator and reserve
    /// `qos_fraction` of each link for QoS traffic (paper: 0.8).
    #[must_use]
    pub fn new(qos_fraction: f64) -> Self {
        Self::with_allocator(AllocatorKind::BitReversal, qos_fraction)
    }

    /// Registry with an explicit allocation policy (ablations).
    #[must_use]
    pub fn with_allocator(allocator: AllocatorKind, qos_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&qos_fraction));
        PortTables {
            nodes: [Vec::new(), Vec::new()],
            allocator,
            capacity_limit: (qos_fraction * f64::from(MAX_TABLE_WEIGHT)) as Weight,
        }
    }

    /// The reservation cap applied to every table (weight units).
    #[must_use]
    pub fn capacity_limit(&self) -> Weight {
        self.capacity_limit
    }

    /// The slot of `key`, growing its node's row on first touch.
    fn slot_mut(&mut self, key: PortKey) -> &mut Option<HighPriorityTable> {
        let (kind, node) = locate(key.node);
        let port = usize::from(key.port);
        let rows = &mut self.nodes[kind];
        if rows.len() <= node {
            rows.resize_with(node + 1, Vec::new);
        }
        let row = &mut rows[node];
        if row.len() <= port {
            row.resize_with(port + 1, || None);
        }
        &mut row[port]
    }

    fn table_mut(&mut self, key: PortKey) -> &mut HighPriorityTable {
        let (allocator, limit) = (self.allocator, self.capacity_limit);
        self.slot_mut(key)
            .get_or_insert_with(|| fresh_table(allocator, limit))
    }

    /// Read access to a port's table (if any reservation ever touched it).
    #[must_use]
    pub fn table(&self, key: PortKey) -> Option<&HighPriorityTable> {
        let (kind, node) = locate(key.node);
        self.nodes[kind]
            .get(node)?
            .get(usize::from(key.port))?
            .as_ref()
    }

    /// All `(port, table)` pairs touched so far, in canonical
    /// [`PortKey`] order.
    pub fn tables(&self) -> impl Iterator<Item = (PortKey, &HighPriorityTable)> {
        self.nodes.iter().enumerate().flat_map(|(kind, rows)| {
            rows.iter().enumerate().flat_map(move |(node, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(move |(port, t)| Some((port_key(kind, node, port), t.as_ref()?)))
            })
        })
    }

    /// Mutable walk over every touched table in canonical [`PortKey`]
    /// order — the order corruption drills and repair passes rely on.
    pub(crate) fn tables_mut(&mut self) -> impl Iterator<Item = (PortKey, &mut HighPriorityTable)> {
        self.nodes.iter_mut().enumerate().flat_map(|(kind, rows)| {
            rows.iter_mut().enumerate().flat_map(move |(node, row)| {
                row.iter_mut()
                    .enumerate()
                    .filter_map(move |(port, t)| Some((port_key(kind, node, port), t.as_mut()?)))
            })
        })
    }

    /// Attempts to reserve `(sl, vl, distance, weight)` at every port in
    /// `path`, in order. On any failure all prior reservations are
    /// rolled back and the failing hop is reported.
    pub fn admit_path(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
    ) -> Result<Vec<HopReservation>, RejectReason> {
        self.admit_path_observed(path, sl, vl, distance, weight, &mut iba_obs::NullRecorder)
    }

    /// [`PortTables::admit_path`] with instrumentation: each hop's
    /// allocator probes are recorded into `rec` (admission is a
    /// control-plane operation, so dynamic dispatch here costs nothing
    /// measurable).
    pub fn admit_path_observed(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Vec<HopReservation>, RejectReason> {
        rec.span_begin("cac.admit");
        let result = self.admit_path_inner(path, sl, vl, distance, weight, rec);
        rec.span_end("cac.admit");
        result
    }

    fn admit_path_inner(
        &mut self,
        path: &[PortKey],
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<Vec<HopReservation>, RejectReason> {
        let mut done: Vec<HopReservation> = Vec::with_capacity(path.len());
        for &key in path {
            match self
                .table_mut(key)
                .admit_observed(sl, vl, distance, weight, rec)
            {
                Ok(adm) => done.push(HopReservation {
                    node: key.node,
                    port: key.port,
                    sequence: adm.sequence,
                }),
                Err(e) => {
                    // Roll back everything reserved so far. These
                    // releases mirror admissions made microseconds ago,
                    // so a failure here means concurrent table damage —
                    // absorb it; the recovery layer re-validates tables.
                    for hop in done.into_iter().rev() {
                        let _ = self.release_hop(hop, weight);
                    }
                    return Err(match e {
                        TableError::NoFreeSequence => RejectReason::NoFreeSequence(key),
                        TableError::CapacityExceeded => RejectReason::CapacityExceeded(key),
                        TableError::RequestTooLarge => RejectReason::RequestTooLarge,
                        _ => RejectReason::InvalidRequest,
                    });
                }
            }
        }
        Ok(done)
    }

    /// Releases one hop's reservation. A mismatched release (stale
    /// sequence, weight underflow — e.g. after a repair pass evicted
    /// the reservation) is reported, not panicked on.
    pub fn release_hop(&mut self, hop: HopReservation, weight: Weight) -> Result<(), ReleaseError> {
        let key = PortKey {
            node: hop.node,
            port: hop.port,
        };
        match self.table_mut(key).release(hop.sequence, weight) {
            Ok(_) => Ok(()),
            Err(error) => Err(ReleaseError {
                key,
                error,
                failures: vec![(key, error)],
            }),
        }
    }

    /// Releases a whole path. Every hop is attempted even when one
    /// fails (a partial release would strand capacity); the returned
    /// error carries **all** failed hops, headlined by the first.
    pub fn release_path(
        &mut self,
        hops: &[HopReservation],
        weight: Weight,
    ) -> Result<(), ReleaseError> {
        let mut failures: Vec<(PortKey, TableError)> = Vec::new();
        for &hop in hops.iter().rev() {
            if let Err(e) = self.release_hop(hop, weight) {
                failures.extend(e.failures);
            }
        }
        match failures.first().copied() {
            None => Ok(()),
            Some((key, error)) => Err(ReleaseError {
                key,
                error,
                failures,
            }),
        }
    }

    /// An empty registry with this registry's configuration (allocator
    /// and capacity cap) — the shape a service shard starts from.
    pub(crate) fn empty_like(&self) -> PortTables {
        PortTables {
            nodes: [Vec::new(), Vec::new()],
            allocator: self.allocator,
            capacity_limit: self.capacity_limit,
        }
    }

    /// Moves every table of `other` into this registry. Key sets must
    /// be disjoint (shards own disjoint port sets); a collision keeps
    /// `other`'s table, which the sharded service never produces.
    pub(crate) fn absorb(&mut self, other: PortTables) {
        for (kind, rows) in other.nodes.into_iter().enumerate() {
            for (node, row) in rows.into_iter().enumerate() {
                for (port, t) in row.into_iter().enumerate() {
                    if let Some(t) = t {
                        *self.slot_mut(port_key(kind, node, port)) = Some(t);
                    }
                }
            }
        }
    }

    /// Non-mutating single-hop admission vote: exactly the error the
    /// real admission at `key` would return, including for a port whose
    /// table was never touched (checked against a fresh table).
    pub(crate) fn probe_admit(
        &self,
        key: PortKey,
        sl: ServiceLevel,
        distance: Distance,
        weight: Weight,
    ) -> Result<(), TableError> {
        match self.table(key) {
            Some(t) => t.check_admit(sl, distance, weight),
            None => {
                fresh_table(self.allocator, self.capacity_limit).check_admit(sl, distance, weight)
            }
        }
    }

    /// Single-hop admission (the sharded service's commit step): the
    /// same table mutation `admit_path` performs at one hop, recorded
    /// into `rec`.
    pub(crate) fn admit_at(
        &mut self,
        key: PortKey,
        sl: ServiceLevel,
        vl: VirtualLane,
        distance: Distance,
        weight: Weight,
        rec: &mut dyn iba_obs::Recorder,
    ) -> Result<HopReservation, TableError> {
        let adm = self
            .table_mut(key)
            .admit_observed(sl, vl, distance, weight, rec)?;
        Ok(HopReservation {
            node: key.node,
            port: key.port,
            sequence: adm.sequence,
        })
    }

    /// Mean reserved bandwidth (Mbps) over a set of ports, given the
    /// link capacity. Ports never touched count as zero.
    #[must_use]
    pub fn mean_reservation_mbps(&self, keys: &[PortKey], link_mbps: f64) -> f64 {
        if keys.is_empty() {
            return 0.0;
        }
        let total: f64 = keys
            .iter()
            .map(|k| {
                self.table(*k).map_or(0.0, |t| {
                    iba_core::bandwidth_for_weight(t.reserved_weight(), link_mbps)
                })
            })
            .sum();
        total / keys.len() as f64
    }

    /// Consistency check over every table (tests).
    pub fn check_all(&self) -> Result<(), String> {
        for (k, t) in self.tables() {
            t.check_consistency()
                .map_err(|e| format!("{:?} port {}: {e}", k.node, k.port))?;
        }
        Ok(())
    }

    /// Returns a sequence's info at a port, for assertions.
    #[must_use]
    pub fn sequence_info(&self, key: PortKey, id: SequenceId) -> Option<iba_core::SequenceInfo> {
        self.table(key)?.sequence(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn key(n: u16, p: u8) -> PortKey {
        PortKey {
            node: NodeId::Switch(n),
            port: p,
        }
    }

    fn sl(i: u8) -> ServiceLevel {
        ServiceLevel::new(i).unwrap()
    }

    fn vl(i: u8) -> VirtualLane {
        VirtualLane::data(i)
    }

    #[test]
    fn path_admission_reserves_every_hop() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 1), key(1, 2), key(2, 0)];
        let hops = pt
            .admit_path(&path, sl(3), vl(3), Distance::D16, 40)
            .unwrap();
        assert_eq!(hops.len(), 3);
        for k in &path {
            assert_eq!(pt.table(*k).unwrap().reserved_weight(), 40);
        }
        pt.check_all().unwrap();
    }

    #[test]
    fn failure_rolls_back_cleanly() {
        let mut pt = PortTables::new(0.8);
        // Exhaust hop 1's capacity (13056 cap).
        let filler = [key(1, 2)];
        for _ in 0..4 {
            pt.admit_path(&filler, sl(6), vl(6), Distance::D64, 3264)
                .unwrap();
        }
        // 13056 reserved exactly; next admission at hop 1 must fail.
        let path = [key(0, 1), key(1, 2), key(2, 0)];
        let err = pt
            .admit_path(&path, sl(3), vl(3), Distance::D16, 40)
            .unwrap_err();
        assert_eq!(err, RejectReason::CapacityExceeded(key(1, 2)));
        // Hops 0 and 2 were rolled back.
        assert_eq!(pt.table(key(0, 1)).unwrap().reserved_weight(), 0);
        assert!(
            pt.table(key(2, 0)).is_none() || pt.table(key(2, 0)).unwrap().reserved_weight() == 0
        );
        pt.check_all().unwrap();
    }

    #[test]
    fn release_path_returns_capacity() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0), key(1, 1)];
        let hops = pt
            .admit_path(&path, sl(0), vl(0), Distance::D2, 100)
            .unwrap();
        pt.release_path(&hops, 100).unwrap();
        for k in &path {
            assert_eq!(pt.table(*k).unwrap().reserved_weight(), 0);
            assert_eq!(pt.table(*k).unwrap().free_entries(), 64);
        }
    }

    #[test]
    fn mismatched_release_reports_instead_of_panicking() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0), key(1, 1)];
        let hops = pt
            .admit_path(&path, sl(0), vl(0), Distance::D8, 50)
            .unwrap();
        // Releasing more weight than reserved is a typed error.
        let err = pt.release_hop(hops[0], 51).unwrap_err();
        assert_eq!(err.key, key(0, 0));
        assert_eq!(err.error, TableError::WeightUnderflow);
        // A double release of the whole path reports the first failure
        // but still attempts every hop.
        pt.release_path(&hops, 50).unwrap();
        let err = pt.release_path(&hops, 50).unwrap_err();
        assert_eq!(err.error, TableError::UnknownSequence);
        pt.check_all().unwrap();
    }

    #[test]
    fn release_path_aggregates_every_failed_hop() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0), key(1, 1), key(2, 2)];
        let hops = pt
            .admit_path(&path, sl(2), vl(2), Distance::D8, 50)
            .unwrap();
        pt.release_path(&hops, 50).unwrap();
        // A full double release fails at all three hops; the error must
        // carry every failure, headlined by the first in release order
        // (downstream-first, i.e. the last hop of the path).
        let err = pt.release_path(&hops, 50).unwrap_err();
        assert_eq!(err.failures.len(), 3);
        assert_eq!(err.key, key(2, 2));
        assert_eq!((err.key, err.error), err.failures[0]);
        assert!(err
            .failures
            .iter()
            .all(|(_, e)| *e == TableError::UnknownSequence));
        assert_eq!(
            err.failures.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![key(2, 2), key(1, 1), key(0, 0)]
        );
        assert!(err.to_string().contains("+2 more failed hops"));
        // A partial double release (one live hop re-admitted) reports
        // only the hops that actually failed.
        let live = pt
            .admit_path(&[key(1, 1)], sl(2), vl(2), Distance::D8, 50)
            .unwrap();
        let mixed = [hops[0], live[0], hops[2]];
        let err = pt.release_path(&mixed, 50).unwrap_err();
        assert_eq!(err.failures.len(), 2);
        assert_eq!(
            err.failures.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![key(2, 2), key(0, 0)]
        );
        pt.check_all().unwrap();
    }

    #[test]
    fn stable_code_is_injective_across_node_kinds() {
        let a = PortKey {
            node: NodeId::Switch(3),
            port: 1,
        };
        let b = PortKey {
            node: NodeId::Host(3),
            port: 1,
        };
        assert_ne!(a.stable_code(), b.stable_code());
        assert_eq!(a.stable_code(), (3 << 8) | 1);
        assert_eq!(b.stable_code(), (1 << 32) | (3 << 8) | 1);
    }

    /// The registry as it was before it became dense: its derived
    /// `Debug` is the format table digests were taken from.
    mod reference {
        use super::super::PortKey;
        use iba_core::{AllocatorKind, HighPriorityTable, Weight};
        use std::collections::BTreeMap;

        // The fields are only read through the derived `Debug`.
        #[allow(dead_code)]
        #[derive(Debug)]
        pub(super) struct PortTables {
            pub(super) tables: BTreeMap<PortKey, HighPriorityTable>,
            pub(super) allocator: AllocatorKind,
            pub(super) capacity_limit: Weight,
        }
    }

    #[test]
    fn registry_walks_ports_in_key_order() {
        // Switch and host ports, with gaps in both node and port
        // numbers, touched in shuffled order.
        let mut keys: Vec<PortKey> = Vec::new();
        for n in [0u16, 1, 3, 7, 12] {
            for p in [0u8, 2, 3, 7] {
                keys.push(key(n, p));
            }
        }
        for n in [0u16, 2, 5, 9, 40] {
            keys.push(PortKey {
                node: NodeId::Host(n),
                port: 0,
            });
        }
        keys.push(PortKey {
            node: NodeId::Host(5),
            port: 3,
        });
        let mut rng = iba_core::SplitMix64::seed_from_u64(11);
        for i in (1..keys.len()).rev() {
            keys.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let touch = |pt: &mut PortTables, i: usize, k: PortKey| {
            let w = 10 + i as Weight;
            pt.admit_path(&[k], sl(1), vl(1), Distance::D16, w).unwrap();
        };

        let mut pt = PortTables::new(0.8);
        let mut model: BTreeMap<PortKey, HighPriorityTable> = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            touch(&mut pt, i, k);
            model.insert(k, pt.table(k).unwrap().clone());
        }
        let walked: Vec<PortKey> = pt.tables().map(|(k, _)| k).collect();
        assert!(walked.windows(2).all(|w| w[0] < w[1]), "{walked:?}");
        assert!(walked.iter().eq(model.keys()));
        let mut_walked: Vec<PortKey> = pt.tables_mut().map(|(k, _)| k).collect();
        assert_eq!(mut_walked, walked);
        let expected = reference::PortTables {
            tables: model,
            allocator: AllocatorKind::BitReversal,
            capacity_limit: pt.capacity_limit(),
        };
        assert_eq!(format!("{pt:?}"), format!("{expected:?}"));
        assert_eq!(format!("{pt:#?}"), format!("{expected:#?}"));

        // Reassembling shard partitions yields the same registry.
        for shards in [1usize, 2, 8] {
            let mut parts: Vec<PortTables> = (0..shards).map(|_| pt.empty_like()).collect();
            for (i, &k) in keys.iter().enumerate() {
                touch(&mut parts[crate::service::shard_of(k, shards)], i, k);
            }
            let mut whole = pt.empty_like();
            for part in parts {
                whole.absorb(part);
            }
            let rewalked: Vec<PortKey> = whole.tables().map(|(k, _)| k).collect();
            assert_eq!(rewalked, walked, "{shards} shards");
            assert_eq!(
                format!("{whole:?}"),
                format!("{expected:?}"),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn reservation_metric() {
        let mut pt = PortTables::new(1.0);
        let path = [key(0, 0)];
        // Half the table weight => half the link.
        pt.admit_path(&path, sl(9), vl(9), Distance::D64, 8160)
            .unwrap();
        let mbps = pt.mean_reservation_mbps(&[key(0, 0), key(5, 5)], 2500.0);
        // One port at 1250 Mbps, one untouched: mean 625.
        assert!((mbps - 625.0).abs() < 1.0, "{mbps}");
    }

    #[test]
    fn shared_sequences_across_connections() {
        let mut pt = PortTables::new(0.8);
        let path = [key(0, 0)];
        let a = pt
            .admit_path(&path, sl(4), vl(4), Distance::D32, 30)
            .unwrap();
        let b = pt
            .admit_path(&path, sl(4), vl(4), Distance::D32, 30)
            .unwrap();
        assert_eq!(a[0].sequence, b[0].sequence, "same SL must share");
        let info = pt.sequence_info(key(0, 0), a[0].sequence).unwrap();
        assert_eq!(info.connections, 2);
        assert_eq!(info.total_weight, 60);
    }
}
