//! The shared byte-interval engine behind every overlap lint.
//!
//! Three analyses reason about buffers as half-open byte intervals over the
//! linker-assigned address space recorded in [`crate::buffer::BufMeta`]:
//! intra-directive `sbuf`/`rbuf` aliasing (CI003), cross-directive
//! consolidation safety (CI006), and the one-sided race lints
//! (CI009–CI012, [`crate::race`]). They, and the directive engine's
//! buffer-independence guard, which splits a consolidated sync where a
//! directive touches memory a pending one did, call this module as the
//! single tested code path for the rule.
//!
//! The conflict rule is the classical data-race condition restricted to
//! static intervals: two accesses conflict iff their byte spans intersect
//! and at least one of them writes.

use crate::buffer::BufMeta;

/// A half-open byte interval `[lo, hi)`. Empty when `lo >= hi`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteSpan {
    /// First byte covered.
    pub lo: usize,
    /// One past the last byte covered.
    pub hi: usize,
}

impl ByteSpan {
    /// The span `[lo, hi)`.
    pub fn new(lo: usize, hi: usize) -> ByteSpan {
        ByteSpan { lo, hi }
    }

    /// The span starting at `lo` covering `len` bytes.
    pub fn sized(lo: usize, len: usize) -> ByteSpan {
        ByteSpan { lo, hi: lo + len }
    }

    /// A buffer's declared extent.
    pub fn of_buf(b: &BufMeta) -> ByteSpan {
        ByteSpan {
            lo: b.addr.0,
            hi: b.addr.1,
        }
    }

    /// A transfer of `count` elements from the start of buffer `b`,
    /// clamped to the buffer's declared extent (an overflowing count is
    /// CI004's problem, not an excuse to report phantom overlaps).
    pub fn of_transfer(b: &BufMeta, count: usize) -> ByteSpan {
        let bytes = count.saturating_mul(b.elem.packed_size());
        ByteSpan {
            lo: b.addr.0,
            hi: b.addr.0.saturating_add(bytes).min(b.addr.1),
        }
    }

    /// Whether the interval covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Number of bytes covered.
    pub fn len(&self) -> usize {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether two intervals share at least one byte.
    pub fn overlaps(&self, other: &ByteSpan) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo < other.hi && other.lo < self.hi
    }

    /// The shared bytes, if any.
    pub fn intersect(&self, other: &ByteSpan) -> Option<ByteSpan> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo < hi).then_some(ByteSpan { lo, hi })
    }
}

impl std::fmt::Display for ByteSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// How an interval is touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The bytes are only read (a send/put source, a get source).
    Read,
    /// The bytes are written (a receive/put destination).
    Write,
}

/// One static access: a byte span plus its direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Bytes touched.
    pub span: ByteSpan,
    /// Read or write.
    pub kind: AccessKind,
}

impl Access {
    /// A read of `span`.
    pub fn read(span: ByteSpan) -> Access {
        Access {
            span,
            kind: AccessKind::Read,
        }
    }

    /// A write of `span`.
    pub fn write(span: ByteSpan) -> Access {
        Access {
            span,
            kind: AccessKind::Write,
        }
    }

    /// The race condition on static intervals: spans intersect and at
    /// least one side writes.
    pub fn conflicts(&self, other: &Access) -> bool {
        (self.kind == AccessKind::Write || other.kind == AccessKind::Write)
            && self.span.overlaps(&other.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::ElemKind;
    use mpisim::dtype::BasicType;

    fn meta(lo: usize, bytes: usize) -> BufMeta {
        BufMeta {
            name: "b".into(),
            elem: ElemKind::Prim(BasicType::U8),
            len: bytes,
            addr: (lo, lo + bytes),
        }
    }

    #[test]
    fn overlap_is_strict_on_half_open_bounds() {
        let a = ByteSpan::new(0, 8);
        assert!(a.overlaps(&ByteSpan::new(7, 9)));
        assert!(!a.overlaps(&ByteSpan::new(8, 16)), "touching is disjoint");
        assert!(!a.overlaps(&ByteSpan::new(3, 3)), "empty never overlaps");
        assert_eq!(
            a.intersect(&ByteSpan::new(4, 12)),
            Some(ByteSpan::new(4, 8))
        );
        assert_eq!(a.intersect(&ByteSpan::new(8, 12)), None);
    }

    #[test]
    fn transfer_span_clamps_to_declared_extent() {
        let b = meta(100, 16);
        assert_eq!(ByteSpan::of_transfer(&b, 4), ByteSpan::new(100, 104));
        // An overflowing count is reported by CI004; the interval engine
        // must not extend past the declaration.
        assert_eq!(ByteSpan::of_transfer(&b, 1000), ByteSpan::new(100, 116));
        assert_eq!(ByteSpan::of_buf(&b), ByteSpan::new(100, 116));
    }

    #[test]
    fn conflict_requires_a_writer() {
        let span = ByteSpan::new(0, 8);
        let shifted = ByteSpan::new(4, 12);
        assert!(!Access::read(span).conflicts(&Access::read(shifted)));
        assert!(Access::read(span).conflicts(&Access::write(shifted)));
        assert!(Access::write(span).conflicts(&Access::read(shifted)));
        assert!(Access::write(span).conflicts(&Access::write(shifted)));
        assert!(!Access::write(span).conflicts(&Access::write(ByteSpan::new(8, 12))));
    }
}
