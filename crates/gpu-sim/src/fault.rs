//! Device-side fault descriptions.

use std::fmt;

/// Address-space windows of the simulated device.
///
/// Device pointers returned by the allocator live at
/// [`DEVICE_BASE`](window::DEVICE_BASE) so they look like real GPU
/// virtual addresses (the paper's examples use
/// `0x7fa2d0000000`-style VAs); shared and local windows are disjoint so the
/// interpreter can resolve generic addresses.
pub mod window {
    /// Base virtual address of global device memory.
    pub const DEVICE_BASE: u64 = 0x7000_0000_0000;
    /// Base virtual address of the per-block shared-memory window.
    pub const SHARED_BASE: u64 = 0x5000_0000_0000;
    /// Base virtual address of the per-thread local-memory window.
    pub const LOCAL_BASE: u64 = 0x6000_0000_0000;
    /// Size of the shared/local windows.
    pub const WINDOW_SIZE: u64 = 0x0100_0000_0000;
}

/// A fault raised during simulated kernel execution or a transfer check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Access to a device address outside any mapped allocation.
    Unmapped {
        /// The faulting virtual address.
        addr: u64,
    },
    /// Access to memory owned by a different address-space id. This is the
    /// MPS-style ASID TLB fault (§2.2): detected, but fatal to the shared
    /// server in the MPS model.
    AsidViolation {
        /// The faulting virtual address.
        addr: u64,
        /// ASID that performed the access.
        accessor: u32,
        /// ASID that owns the page.
        owner: u32,
    },
    /// A global access whose address is not a multiple of its width, as
    /// real GPUs fault it. Fencing relies on it: with naturally aligned
    /// accesses, a first byte inside the partition means every byte is.
    Misaligned {
        /// The faulting virtual address.
        addr: u64,
        /// Width of the access in bytes.
        width: u64,
    },
    /// A `.shared`, `.local` or `.global` instruction whose address lies
    /// outside that state space's window (only generic accesses resolve by
    /// address).
    WrongSpace {
        /// The faulting virtual address.
        addr: u64,
        /// The state space the instruction named.
        space: ptx::types::Space,
    },
    /// The kernel executed `trap;` — raised by Guardian's address-checking
    /// instrumentation when it detects an out-of-bounds pointer.
    Trap {
        /// Name of the kernel that trapped.
        kernel: String,
    },
    /// Shared or local access outside the block/thread buffer.
    ScratchOutOfBounds {
        /// The faulting window-relative address.
        addr: u64,
        /// Size of the buffer that was exceeded.
        size: u64,
    },
    /// An indirect branch (`brx.idx`) indexed outside its target table.
    IndirectBranchOutOfRange {
        /// The out-of-range index value.
        index: u64,
        /// Number of entries in the target table.
        table_len: usize,
    },
    /// Malformed execution (e.g. division by zero in address arithmetic is
    /// fine, but exceeding the instruction budget indicates a runaway
    /// kernel; the grdManager can revoke such kernels, §4.3).
    InstructionBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
    },
    /// A host-initiated transfer touched addresses outside the caller's
    /// partition (caught by the grdManager's bounds table, §4.2.2).
    TransferOutOfBounds {
        /// Start of the offending device range.
        addr: u64,
        /// Length of the offending range.
        len: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped { addr } => write!(f, "unmapped device address {addr:#x}"),
            Fault::AsidViolation {
                addr,
                accessor,
                owner,
            } => write!(
                f,
                "ASID {accessor} accessed {addr:#x} owned by ASID {owner}"
            ),
            Fault::Misaligned { addr, width } => {
                write!(f, "misaligned {width}-byte access at {addr:#x}")
            }
            Fault::WrongSpace { addr, space } => {
                write!(f, "{space} access at {addr:#x}, outside that state space")
            }
            Fault::Trap { kernel } => write!(f, "kernel `{kernel}` raised trap"),
            Fault::ScratchOutOfBounds { addr, size } => {
                write!(f, "scratch access {addr:#x} beyond buffer of {size} bytes")
            }
            Fault::IndirectBranchOutOfRange { index, table_len } => {
                write!(f, "brx.idx index {index} beyond table of {table_len}")
            }
            Fault::InstructionBudgetExceeded { budget } => {
                write!(f, "instruction budget {budget} exceeded (runaway kernel)")
            }
            Fault::TransferOutOfBounds { addr, len } => {
                write!(f, "transfer [{addr:#x}, +{len}) out of partition bounds")
            }
        }
    }
}

impl std::error::Error for Fault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let f = Fault::AsidViolation {
            addr: 0x7000_0000_1000,
            accessor: 2,
            owner: 1,
        };
        let s = f.to_string();
        assert!(s.contains("ASID 2"));
        assert!(s.contains("owned by ASID 1"));
    }

    #[test]
    fn windows_are_disjoint() {
        use window::*;
        const { assert!(SHARED_BASE + WINDOW_SIZE <= LOCAL_BASE) }
        const { assert!(LOCAL_BASE + WINDOW_SIZE <= DEVICE_BASE) }
    }
}
