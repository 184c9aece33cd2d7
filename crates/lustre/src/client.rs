//! The Lustre client: stripe-aligned parallel I/O with a bounded number of
//! RPCs in flight, plus metadata operations against the MDS.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use bytes::{Bytes, BytesMut};
use netsim::{NodeId, RpcError};
use simkit::future::join_all;
use simkit::sync::semaphore::Semaphore;
use storesim::StoreError;

use crate::mds::{FileLayout, MdsError, MdsMsg, MDS_SERVICE};
use crate::oss::{OssMsg, OSS_SERVICE};
use crate::LustreCluster;

/// Client-visible failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LustreError {
    /// Metadata error.
    Mds(MdsError),
    /// OST storage error.
    Store(StoreError),
    /// Network/RPC failure.
    Rpc(RpcError),
    /// The OSS write ack's commit CRC32C did not match the bytes the
    /// client sent: the committed extent is corrupt on media.
    CommitMismatch {
        /// File offset of the mismatching stripe extent.
        offset: u64,
    },
}

impl fmt::Display for LustreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LustreError::Mds(e) => write!(f, "lustre mds: {e}"),
            LustreError::Store(e) => write!(f, "lustre ost: {e}"),
            LustreError::Rpc(e) => write!(f, "lustre rpc: {e}"),
            LustreError::CommitMismatch { offset } => {
                write!(f, "lustre commit checksum mismatch at offset {offset}")
            }
        }
    }
}
impl std::error::Error for LustreError {}

impl From<MdsError> for LustreError {
    fn from(e: MdsError) -> Self {
        LustreError::Mds(e)
    }
}
impl From<StoreError> for LustreError {
    fn from(e: StoreError) -> Self {
        LustreError::Store(e)
    }
}
impl From<RpcError> for LustreError {
    fn from(e: RpcError) -> Self {
        LustreError::Rpc(e)
    }
}

/// A mounted Lustre client on one compute node.
#[derive(Clone)]
pub struct LustreClient {
    cluster: Rc<LustreCluster>,
    node: NodeId,
}

impl LustreClient {
    /// Mount the filesystem on `node`.
    pub fn new(cluster: Rc<LustreCluster>, node: NodeId) -> LustreClient {
        LustreClient { cluster, node }
    }

    /// The compute node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The filesystem this client is mounted on.
    pub fn cluster(&self) -> &Rc<LustreCluster> {
        &self.cluster
    }

    async fn mds_call<R: 'static>(
        &self,
        bytes: u64,
        make: impl FnOnce(netsim::ReplyHandle<R>) -> MdsMsg,
    ) -> Result<R, LustreError> {
        let mds_node = self.cluster.mds.node();
        Ok(self
            .cluster
            .mds_net
            .call(self.node, mds_node, MDS_SERVICE, bytes, make)
            .await?)
    }

    /// Create a new file for writing.
    pub async fn create(&self, path: &str) -> Result<LustreFile, LustreError> {
        let p = path.to_owned();
        let layout = self
            .mds_call(128 + path.len() as u64, |reply| MdsMsg::Create {
                path: p,
                reply,
            })
            .await??;
        Ok(LustreFile::new(self.clone(), path.to_owned(), layout))
    }

    /// Open an existing file.
    pub async fn open(&self, path: &str) -> Result<LustreFile, LustreError> {
        let p = path.to_owned();
        let layout = self
            .mds_call(128 + path.len() as u64, |reply| MdsMsg::Open {
                path: p,
                reply,
            })
            .await??;
        Ok(LustreFile::new(self.clone(), path.to_owned(), layout))
    }

    /// Whether `path` exists.
    pub async fn exists(&self, path: &str) -> Result<bool, LustreError> {
        match self.open(path).await {
            Ok(_) => Ok(true),
            Err(LustreError::Mds(MdsError::NotFound(_))) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Remove a file and reap its objects from the OSTs.
    pub async fn unlink(&self, path: &str) -> Result<(), LustreError> {
        let p = path.to_owned();
        let layout = self
            .mds_call(128 + path.len() as u64, |reply| MdsMsg::Unlink {
                path: p,
                reply,
            })
            .await??;
        // reap the object from every OSS that may hold a stripe
        let mut oss_nodes: Vec<NodeId> = layout
            .osts
            .iter()
            .map(|&ost| self.cluster.ost_location(ost).0)
            .collect();
        oss_nodes.sort();
        oss_nodes.dedup();
        for oss_node in oss_nodes {
            let _freed: u64 = self
                .cluster
                .oss_net
                .call(self.node, oss_node, OSS_SERVICE, 64, |reply| {
                    OssMsg::Delete {
                        obj: layout.file_id,
                        reply,
                    }
                })
                .await?;
        }
        Ok(())
    }

    /// List paths under `prefix`.
    pub async fn list(&self, prefix: &str) -> Result<Vec<String>, LustreError> {
        let p = prefix.to_owned();
        self.mds_call(128 + prefix.len() as u64, |reply| MdsMsg::List {
            prefix: p,
            reply,
        })
        .await
    }
}

/// An open file handle: striped reads/writes plus size bookkeeping.
pub struct LustreFile {
    client: LustreClient,
    path: String,
    layout: FileLayout,
    write_pos: Cell<u64>,
    inflight: Rc<Semaphore>,
}

impl LustreFile {
    fn new(client: LustreClient, path: String, layout: FileLayout) -> LustreFile {
        let cap = client.cluster.config.max_rpcs_in_flight * layout.osts.len().max(1);
        LustreFile {
            client,
            path,
            layout,
            write_pos: Cell::new(0),
            inflight: Rc::new(Semaphore::new(cap.max(1))),
        }
    }

    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Known size (from the MDS at open; locally updated while writing).
    pub fn size(&self) -> u64 {
        self.layout.size.max(self.write_pos.get())
    }

    /// The stripe layout.
    pub fn layout(&self) -> &FileLayout {
        &self.layout
    }

    /// Split `[offset, offset+len)` into stripe-aligned extents.
    fn extents(&self, offset: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let stripe_end = (pos / self.layout.stripe_size + 1) * self.layout.stripe_size;
            let chunk_end = stripe_end.min(end);
            out.push((pos, chunk_end - pos));
            pos = chunk_end;
        }
        out
    }

    /// Write `data` at an explicit offset, striping across OSTs in
    /// parallel (bounded by `max_rpcs_in_flight × stripe_count`). Each
    /// stripe ack carries the CRC32C of the bytes the OSS committed; the
    /// client compares it against the CRC32C of the slice it sent, so a
    /// corrupted commit surfaces as [`LustreError::CommitMismatch`] rather
    /// than a silent success — without paying for a read-back.
    pub async fn write_at(&self, offset: u64, data: Bytes) -> Result<(), LustreError> {
        let sim = self.client.cluster.oss_net.fabric().sim().clone();
        // kernel-client copy cost (serial per writer)
        sim.sleep(simkit::dur::transfer(
            data.len() as u64,
            self.client.cluster.config.client_cpu_rate,
        ))
        .await;
        let mut futs = Vec::new();
        let mut cursor = 0u64;
        for (off, len) in self.extents(offset, data.len() as u64) {
            let chunk = data.slice(cursor as usize..(cursor + len) as usize);
            cursor += len;
            let (slot, obj_off) = self.layout.locate(off);
            let ost = self.layout.osts[slot];
            let (oss_node, ost_slot) = self.client.cluster.ost_location(ost);
            let net = Rc::clone(&self.client.cluster.oss_net);
            let inflight = Rc::clone(&self.inflight);
            let src = self.client.node;
            let obj = self.layout.file_id;
            futs.push(async move {
                let _permit = inflight.acquire().await;
                let wire = chunk.len() as u64 + 64;
                let sent = simkit::checksum::crc32c(&chunk);
                let r: Result<u32, StoreError> = net
                    .call(src, oss_node, OSS_SERVICE, wire, |reply| OssMsg::Write {
                        ost_slot,
                        obj,
                        offset: obj_off,
                        data: chunk,
                        reply,
                    })
                    .await
                    .map_err(LustreError::from)?;
                let committed = r.map_err(LustreError::from)?;
                if committed != sent {
                    return Err(LustreError::CommitMismatch { offset: off });
                }
                Ok(())
            });
        }
        let results = join_all(&sim, futs).await;
        for r in results {
            r?;
        }
        let end = offset + data.len() as u64;
        if end > self.write_pos.get() {
            self.write_pos.set(end);
        }
        Ok(())
    }

    /// Sequential append (tracks its own position).
    pub async fn append(&self, data: Bytes) -> Result<(), LustreError> {
        self.write_at(self.write_pos.get(), data).await
    }

    /// Read `len` bytes at `offset`, gathering stripes in parallel.
    pub async fn read_at(&self, offset: u64, len: u64) -> Result<Bytes, LustreError> {
        let sim = self.client.cluster.oss_net.fabric().sim().clone();
        sim.sleep(simkit::dur::transfer(
            len,
            self.client.cluster.config.client_cpu_rate,
        ))
        .await;
        let mut futs = Vec::new();
        for (off, chunk_len) in self.extents(offset, len) {
            let (slot, obj_off) = self.layout.locate(off);
            let ost = self.layout.osts[slot];
            let (oss_node, ost_slot) = self.client.cluster.ost_location(ost);
            let net = Rc::clone(&self.client.cluster.oss_net);
            let inflight = Rc::clone(&self.inflight);
            let src = self.client.node;
            let obj = self.layout.file_id;
            futs.push(async move {
                let _permit = inflight.acquire().await;
                let r: Result<Bytes, StoreError> = net
                    .call(src, oss_node, OSS_SERVICE, 64, |reply| OssMsg::Read {
                        ost_slot,
                        obj,
                        offset: obj_off,
                        len: chunk_len,
                        reply,
                    })
                    .await
                    .map_err(LustreError::from)?;
                r.map_err(LustreError::from)
            });
        }
        let results = join_all(&sim, futs).await;
        let mut buf = BytesMut::with_capacity(len as usize);
        for r in results {
            buf.extend_from_slice(&r?);
        }
        Ok(buf.freeze())
    }

    /// Read the whole file (by known size).
    pub async fn read_all(&self) -> Result<Bytes, LustreError> {
        let size = self.size();
        if size == 0 {
            return Ok(Bytes::new());
        }
        self.read_at(0, size).await
    }

    /// Flush size metadata to the MDS. Call after writing.
    pub async fn close(&self) -> Result<(), LustreError> {
        let size = self.size();
        let p = self.path.clone();
        self.client
            .mds_call(64 + self.path.len() as u64, |reply| MdsMsg::SetSize {
                path: p,
                size,
                reply,
            })
            .await??;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LustreCluster, LustreConfig};
    use netsim::{Fabric, NetConfig};
    use simkit::Sim;

    fn fs(compute_nodes: usize, config: LustreConfig) -> (Sim, Rc<Fabric>, Rc<LustreCluster>) {
        let sim = Sim::new();
        let fabric = Fabric::new(sim.clone(), compute_nodes, NetConfig::default());
        let cluster = LustreCluster::deploy(&fabric, config);
        (sim, fabric, cluster)
    }

    fn patterned(n: usize) -> Bytes {
        Bytes::from((0..n).map(|i| (i % 241) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn write_read_roundtrip_across_stripes() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        let data = patterned(5 << 20); // 5 stripes
        let expect = data.clone();
        sim.block_on(async move {
            let fh = client.create("/bench/f0").await.unwrap();
            fh.append(data).await.unwrap();
            fh.close().await.unwrap();
            let fh2 = client.open("/bench/f0").await.unwrap();
            assert_eq!(fh2.size(), 5 << 20);
            let back = fh2.read_all().await.unwrap();
            assert_eq!(back, expect);
        });
    }

    #[test]
    fn partial_reads_at_offsets() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        let data = patterned(3 << 20);
        let expect = data.clone();
        sim.block_on(async move {
            let fh = client.create("/p").await.unwrap();
            fh.append(data).await.unwrap();
            fh.close().await.unwrap();
            let fh = client.open("/p").await.unwrap();
            // read crossing a stripe boundary
            let off = (1 << 20) - 100;
            let got = fh.read_at(off, 200).await.unwrap();
            assert_eq!(&got[..], &expect[off as usize..off as usize + 200]);
        });
    }

    #[test]
    fn create_conflicts_and_open_missing() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        sim.block_on(async move {
            client.create("/x").await.unwrap();
            match client.create("/x").await.map(|f| f.path().to_owned()) {
                Err(LustreError::Mds(MdsError::Exists(_))) => {}
                other => panic!("expected Exists, got {other:?}"),
            }
            match client.open("/y").await.map(|f| f.path().to_owned()) {
                Err(LustreError::Mds(MdsError::NotFound(_))) => {}
                other => panic!("expected NotFound, got {other:?}"),
            }
            assert!(client.exists("/x").await.unwrap());
            assert!(!client.exists("/y").await.unwrap());
        });
    }

    #[test]
    fn unlink_reaps_ost_objects() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        let c2 = Rc::clone(&cluster);
        sim.block_on(async move {
            let fh = client.create("/del").await.unwrap();
            fh.append(patterned(4 << 20)).await.unwrap();
            fh.close().await.unwrap();
            assert_eq!(c2.stored_bytes(), 4 << 20);
            client.unlink("/del").await.unwrap();
            assert_eq!(c2.stored_bytes(), 0);
            assert!(!client.exists("/del").await.unwrap());
        });
    }

    #[test]
    fn list_by_prefix() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        sim.block_on(async move {
            for p in ["/a/1", "/a/2", "/b/1"] {
                client.create(p).await.unwrap();
            }
            let got = client.list("/a/").await.unwrap();
            assert_eq!(got, vec!["/a/1".to_owned(), "/a/2".to_owned()]);
            assert_eq!(client.list("/").await.unwrap().len(), 3);
        });
    }

    #[test]
    fn striping_engages_multiple_osts() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        let c2 = Rc::clone(&cluster);
        sim.block_on(async move {
            let fh = client.create("/wide").await.unwrap();
            fh.append(patterned(8 << 20)).await.unwrap();
            fh.close().await.unwrap();
            // 4-way stripe over 8 MiB → 2 MiB per OST
            let mut hit = 0;
            for oss in &c2.osses {
                if oss.stored_bytes() > 0 {
                    hit += 1;
                }
            }
            assert!(hit >= 2, "only {hit} OSS(es) hold data");
        });
    }

    #[test]
    fn parallel_stripes_beat_single_ost_rate() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        let bytes = 64u64 << 20;
        let s = sim.clone();
        let elapsed = sim.block_on(async move {
            let fh = client.create("/fast").await.unwrap();
            let t0 = s.now();
            fh.append(patterned(bytes as usize)).await.unwrap();
            fh.close().await.unwrap();
            (s.now() - t0).as_secs_f64()
        });
        let single_ost = bytes as f64 / 450e6;
        assert!(
            elapsed < single_ost * 0.7,
            "no striping speedup: {elapsed:.3}s vs single-OST {single_ost:.3}s"
        );
    }

    #[test]
    fn stripe_count_capped_by_total_osts() {
        // ask for 8-way striping on a 2-OST filesystem: layout must cap
        let config = LustreConfig {
            oss_count: 2,
            osts_per_oss: 1,
            stripe_count: 8,
            ..LustreConfig::default()
        };
        let (sim, _f, cluster) = fs(1, config);
        let client = cluster.client(NodeId(0));
        sim.block_on(async move {
            let fh = client.create("/cap").await.unwrap();
            assert_eq!(fh.layout().osts.len(), 2);
            fh.append(patterned(3 << 20)).await.unwrap();
            fh.close().await.unwrap();
            let back = client.open("/cap").await.unwrap().read_all().await.unwrap();
            assert_eq!(back.len(), 3 << 20);
        });
    }

    #[test]
    fn zero_byte_file_roundtrips() {
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let client = cluster.client(NodeId(0));
        sim.block_on(async move {
            let fh = client.create("/empty").await.unwrap();
            fh.close().await.unwrap();
            let fh2 = client.open("/empty").await.unwrap();
            assert_eq!(fh2.size(), 0);
            assert!(fh2.read_all().await.unwrap().is_empty());
        });
    }

    #[test]
    fn many_clients_contend_on_shared_osses() {
        // 16 writers, small Lustre (2 OSS): aggregate should be bounded by
        // OST capability, i.e. runtime scales up with client count
        let config = LustreConfig {
            oss_count: 2,
            osts_per_oss: 1,
            stripe_count: 1,
            ..LustreConfig::default()
        };
        let (sim, _f, cluster) = fs(16, config);
        let bytes = 32usize << 20;
        for n in 0..16u32 {
            let client = cluster.client(NodeId(n));
            sim.spawn(async move {
                let fh = client.create(&format!("/c{n}")).await.unwrap();
                fh.append(patterned(bytes)).await.unwrap();
                fh.close().await.unwrap();
            });
        }
        let end = sim.run().as_secs_f64();
        // 512 MiB over 2 OSTs at 450 MB/s ≈ 0.60 s minimum
        let floor = (16.0 * bytes as f64) / (2.0 * 450e6);
        assert!(end > floor * 0.9, "finished impossibly fast: {end:.3}s");
        assert!(end < floor * 2.0, "far slower than device bound: {end:.3}s");
    }

    #[test]
    fn corrupt_commit_surfaces_as_commit_mismatch() {
        // Every OSS corrupts every commit between 1 s and 2 s. The plan RNG
        // picks the byte and bit; reading the extent back shows which byte
        // the OST holds damaged, so the sweep proves that flips of the
        // first, last and interior bytes under several masks all fail the
        // commit checksum.
        use simkit::{dur, FaultEvent, FaultPlan, Time};
        let (sim, _f, cluster) = fs(1, LustreConfig::default());
        let mut plan = FaultPlan::new(5);
        for oss in &cluster.osses {
            let node = oss.node().0;
            plan = plan.at(dur::secs(1), FaultEvent::CorruptCommit { node, p: 1.0 });
        }
        sim.install_faults(plan.at(dur::secs(2), FaultEvent::ClearEdges));
        let client = cluster.client(NodeId(0));
        let stripe = cluster.config.stripe_size;
        let s = sim.clone();
        sim.block_on(async move {
            let fh = client.create("/commit").await.unwrap();
            fh.write_at(0, patterned(4096)).await.unwrap();
            assert!(
                s.now() < Time::from_secs(1),
                "clean write ran past the rules"
            );

            s.sleep_until(Time::from_secs(1)).await;
            let (mut first, mut last, mut interior) = (false, false, false);
            let mut masks = 0u8;
            for i in 0..64u64 {
                let len = [2u64, 3, 7, 8, 9, 64, 4096][i as usize % 7];
                let off = (i % 4) * stripe + 100;
                let data = Bytes::from((0..len).map(|b| (b * 7 + i) as u8).collect::<Vec<u8>>());
                match fh.write_at(off, data.clone()).await {
                    Err(LustreError::CommitMismatch { offset }) => assert_eq!(offset, off),
                    other => panic!("write {i} of {len} B: {other:?}"),
                }
                let back = fh.read_at(off, len).await.unwrap();
                let flips: Vec<(usize, u8)> = (0..len as usize)
                    .filter(|&b| back[b] != data[b])
                    .map(|b| (b, back[b] ^ data[b]))
                    .collect();
                assert_eq!(flips.len(), 1, "write {i}: {flips:?}");
                let (at, mask) = flips[0];
                assert_eq!(mask.count_ones(), 1);
                masks |= mask;
                first |= at == 0;
                last |= at == len as usize - 1;
                interior |= at > 0 && at < len as usize - 1;
            }
            assert!(first && last && interior, "{first} {last} {interior}");
            assert!(masks.count_ones() >= 4, "masks {masks:#010b}");
            // a write spanning stripes fails on the first corrupt stripe
            let r = fh.write_at(0, patterned(3 << 20)).await;
            assert!(
                matches!(r, Err(LustreError::CommitMismatch { .. })),
                "{r:?}"
            );

            s.sleep_until(Time::from_secs(2)).await;
            let data = patterned(3 << 20);
            fh.write_at(0, data.clone()).await.unwrap();
            assert_eq!(fh.read_at(0, 3 << 20).await.unwrap(), data);
        });
    }
}
