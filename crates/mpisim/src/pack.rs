//! `MPI_Pack` / `MPI_Unpack`: the explicit marshalling style the original
//! WL-LSMS code uses (paper Listing 4) and the baseline the directive
//! translation's derived-datatype path is compared against in Figure 3.
//!
//! Each pack/unpack charges the per-byte copy cost from the cost model, so
//! the virtual-time difference between "pack everything then send" and
//! "send through a committed MPI struct" is measurable.

use bytes::Bytes;
use netsim::{CostModel, RankCtx};

use crate::pod::{as_bytes, as_bytes_mut, Pod};

/// A pack buffer with an explicit position cursor, mirroring
/// `MPI_Pack(..., buf, size, &pos, comm)`. The sender packs into it and
/// hands the bytes to the send by ownership ([`PackBuf::into_bytes`]); the
/// receiver unpacks straight from the received payload
/// ([`PackBuf::received`]). Neither side copies the bytes beyond the
/// charged pack and unpack.
#[derive(Debug)]
pub struct PackBuf {
    data: Data,
    pos: usize,
}

#[derive(Debug)]
enum Data {
    /// Being packed: the `pos` bytes packed so far, at most `size`.
    Packing { buf: Vec<u8>, size: usize },
    /// A received message, unpacked from `pos` on.
    Received(Bytes),
}

impl PackBuf {
    /// A pack buffer of `size` bytes (like the `s`-sized staging buffer in
    /// the original code). The space is reserved, not zero-filled.
    pub fn with_capacity(size: usize) -> Self {
        PackBuf {
            data: Data::Packing {
                buf: Vec::with_capacity(size),
                size,
            },
            pos: 0,
        }
    }

    /// Unpack a received payload in place.
    pub fn received(data: Bytes) -> Self {
        PackBuf {
            data: Data::Received(data),
            pos: 0,
        }
    }

    /// Wrap a copy of `data` for unpacking.
    pub fn from_bytes(data: &[u8]) -> Self {
        Self::received(Bytes::copy_from_slice(data))
    }

    /// Current cursor position.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reset the cursor (reuse the buffer).
    pub fn reset(&mut self) {
        if let Data::Packing { buf, .. } = &mut self.data {
            buf.clear();
        }
        self.pos = 0;
    }

    /// The buffer's bytes: those packed so far, or the whole message.
    fn bytes(&self) -> &[u8] {
        match &self.data {
            Data::Packing { buf, .. } => buf,
            Data::Received(data) => data,
        }
    }

    /// The packed bytes so far.
    pub fn packed(&self) -> &[u8] {
        &self.bytes()[..self.pos]
    }

    /// The packed bytes, by ownership: what `MPI_Send` of `MPI_PACKED`
    /// ships, without a copy.
    pub fn into_bytes(self) -> Bytes {
        match self.data {
            Data::Packing { buf, .. } => Bytes::from(buf),
            Data::Received(data) => Bytes::copy_from_slice(&data[..self.pos]),
        }
    }

    /// `MPI_Pack`: append `count` elements from `src`, charging the copy.
    /// Panics on a received buffer.
    pub fn pack<T: Pod>(&mut self, ctx: &mut RankCtx, src: &[T], model: &CostModel) {
        let bytes = as_bytes(src);
        let Data::Packing { buf, size } = &mut self.data else {
            panic!("pack into a received buffer");
        };
        assert!(
            self.pos + bytes.len() <= *size,
            "pack overflow: {} + {} > {}",
            self.pos,
            bytes.len(),
            size
        );
        buf.extend_from_slice(bytes);
        self.pos += bytes.len();
        ctx.charge_pack(bytes.len(), model);
    }

    /// `MPI_Pack` of a single value.
    pub fn pack_one<T: Pod>(&mut self, ctx: &mut RankCtx, v: &T, model: &CostModel) {
        self.pack(ctx, std::slice::from_ref(v), model);
    }

    /// `MPI_Unpack`: extract `out.len()` elements, charging the copy.
    pub fn unpack<T: Pod>(&mut self, ctx: &mut RankCtx, out: &mut [T], model: &CostModel) {
        let dst = as_bytes_mut(out);
        let src = self.bytes();
        assert!(
            self.pos + dst.len() <= src.len(),
            "unpack underflow: {} + {} > {}",
            self.pos,
            dst.len(),
            src.len()
        );
        dst.copy_from_slice(&src[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
        ctx.charge_pack(dst.len(), model);
    }

    /// `MPI_Unpack` of a single value.
    pub fn unpack_one<T: Pod>(&mut self, ctx: &mut RankCtx, model: &CostModel) -> T {
        let mut v = [unsafe { std::mem::zeroed::<T>() }];
        self.unpack(ctx, &mut v, model);
        v[0]
    }
}

/// Wire framing for coalesced (batched) messages: each piece travels as a
/// little-endian `u32` length prefix followed by its bytes. Used by the
/// directive engine's small-message aggregation path — the sender frames
/// each directive instance's payload into one growing batch buffer, the
/// receiver peels pieces back off in order.
pub fn frame_piece(buf: &mut Vec<u8>, piece: &[u8]) {
    buf.extend_from_slice(&(piece.len() as u32).to_le_bytes());
    buf.extend_from_slice(piece);
}

/// Peel the next framed piece out of a coalesced payload, advancing `pos`.
/// Returns `None` once the payload is exhausted. Panics on a truncated
/// frame (a malformed batch is a programming error, not a recoverable
/// condition — both framing and peeling live in this module).
pub fn peel_piece<'a>(payload: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    if *pos >= payload.len() {
        return None;
    }
    assert!(
        *pos + 4 <= payload.len(),
        "truncated coalesced frame header"
    );
    let len = u32::from_le_bytes(payload[*pos..*pos + 4].try_into().unwrap()) as usize;
    *pos += 4;
    assert!(
        *pos + len <= payload.len(),
        "truncated coalesced frame body"
    );
    let piece = &payload[*pos..*pos + len];
    *pos += len;
    Some(piece)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run, SimConfig, SrcSel, TagSel};

    #[test]
    fn frame_and_peel_roundtrip() {
        let mut buf = Vec::new();
        frame_piece(&mut buf, b"alpha");
        frame_piece(&mut buf, b"");
        frame_piece(&mut buf, &[7u8; 32]);
        let mut pos = 0;
        assert_eq!(peel_piece(&buf, &mut pos), Some(b"alpha".as_slice()));
        assert_eq!(peel_piece(&buf, &mut pos), Some(b"".as_slice()));
        assert_eq!(peel_piece(&buf, &mut pos), Some([7u8; 32].as_slice()));
        assert_eq!(peel_piece(&buf, &mut pos), None);
        assert_eq!(pos, buf.len());
    }

    #[test]
    #[should_panic(expected = "truncated coalesced frame")]
    fn truncated_frame_panics() {
        let mut buf = Vec::new();
        frame_piece(&mut buf, b"abcdef");
        buf.truncate(buf.len() - 2);
        let mut pos = 0;
        peel_piece(&buf, &mut pos);
    }

    #[test]
    fn pack_unpack_roundtrip_with_charges() {
        let res = run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let mut pb = PackBuf::with_capacity(64);
            pb.pack_one(ctx, &42i32, &m);
            pb.pack(ctx, &[1.5f64, 2.5], &m);
            pb.pack(ctx, b"abc".as_slice(), &m);
            assert_eq!(pb.position(), 4 + 16 + 3);

            let mut rb = PackBuf::from_bytes(pb.packed());
            let i: i32 = rb.unpack_one(ctx, &m);
            let mut d = [0f64; 2];
            rb.unpack(ctx, &mut d, &m);
            let mut s = [0u8; 3];
            rb.unpack(ctx, &mut s, &m);
            assert_eq!(i, 42);
            assert_eq!(d, [1.5, 2.5]);
            assert_eq!(&s, b"abc");
            ctx.now()
        });
        // 2 * 23 bytes copied at pack_per_byte.
        assert!(res.per_rank[0] > netsim::Time::ZERO);
        assert_eq!(res.stats[0].packed_bytes, 46);
    }

    #[test]
    fn reset_reuses_buffer() {
        run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let mut pb = PackBuf::with_capacity(8);
            pb.pack_one(ctx, &1u64, &m);
            pb.reset();
            pb.pack_one(ctx, &2u64, &m);
            assert_eq!(pb.position(), 8);
            let mut rb = PackBuf::from_bytes(pb.packed());
            assert_eq!(rb.unpack_one::<u64>(ctx, &m), 2);
        });
    }

    #[test]
    fn sent_bytes_unpack_in_place() {
        // Rank 0 packs and sends by ownership; rank 1 unpacks the received
        // payload where it landed.
        let res = run(SimConfig::new(2), |ctx| {
            let m = ctx.machine().mpi;
            if ctx.rank() == 0 {
                let mut pb = PackBuf::with_capacity(32);
                pb.pack_one(ctx, &7i32, &m);
                pb.pack(ctx, &[0.25f64, -4.0], &m);
                let data = pb.into_bytes();
                assert_eq!(data.len(), 20);
                let s = ctx.isend_bytes(1, 0, data, &m);
                ctx.wait_send(&s, &m);
                None
            } else {
                let r = ctx.irecv(SrcSel::Exact(0), TagSel::Exact(0), &m);
                let payload = ctx.wait_recv(&r, &m).payload;
                let at = payload.as_ptr();
                let mut rb = PackBuf::received(payload);
                assert_eq!(rb.packed().as_ptr(), at);
                let i: i32 = rb.unpack_one(ctx, &m);
                let mut d = [0f64; 2];
                rb.unpack(ctx, &mut d, &m);
                assert_eq!(rb.position(), 20);
                Some((i, d))
            }
        });
        assert_eq!(res.per_rank[1], Some((7, [0.25, -4.0])));
        assert_eq!(res.stats[0].packed_bytes, 20);
        assert_eq!(res.stats[1].packed_bytes, 20);
    }

    #[test]
    #[should_panic(expected = "unpack underflow")]
    fn underflow_panics() {
        run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let mut rb = PackBuf::received(Bytes::from(vec![0u8; 4]));
            rb.unpack_one::<u64>(ctx, &m);
        });
    }

    #[test]
    #[should_panic(expected = "pack overflow")]
    fn overflow_panics() {
        run(SimConfig::new(1), |ctx| {
            let m = ctx.machine().mpi;
            let mut pb = PackBuf::with_capacity(4);
            pb.pack_one(ctx, &1u64, &m);
        });
    }
}
