//===- FastPath.h - Translating fast path for allocated code ----*- C++ -*-===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A translating execution mode for alloc::AllocatedProgram: each program
/// is pre-translated once into a flat, pre-decoded op stream executed by
/// one computed-goto dispatch loop (fastpath::SegmentContext, Segment.h),
/// either to completion (standalone soak) or resumably between memory
/// references (chip contexts). The fast path is itself a compiler, so it
/// plugs into the soak harness's differential oracle with the
/// interpreter (sim::AllocContext) as the reference — the contract is
/// *bit-identical* RunResults: same trap kinds and message strings, same
/// instruction and cycle counts at the trap point, same halt values and
/// final memory images, same fault-injector draw sequences.
///
/// Translation scheme:
///  - operands become direct offsets into a flat register frame (the six
///    banks at fixed bases) with constants folded into frame slots, so
///    an operand read is one unchecked array index;
///  - PrimOp/CmpOp are folded into specialized opcodes (AluAdd..AluNot,
///    BranchEq..BranchGe) whose handlers call the centralized
///    cps::evalPrim/evalCmp with a compile-time op;
///  - block targets resolve to op indices; a branch edge to an invalid
///    block resolves to a pre-formatted trap op, so the runtime check
///    disappears;
///  - instruction and cycle accounting is block-aggregated: interior ops
///    touch no counters. Every exit op (branch, jump, halt, trap)
///    reconstructs the exact interpreter counts from per-op cold data
///    (index in block, exclusive cycle prefix sum) relative to the
///    counters saved at block entry. Latency costs (including the
///    per-Imm 1-vs-2-cycle split) are folded at translation time, which
///    is why the translation is specific to one LatencyModel;
///  - adjacent simple ops fuse into one dispatch (FuseCopy*/FuseShlAdd):
///    interior op indices are never control-flow targets and interior
///    ops touch no counters, so merging two ops is invisible to both
///    control flow and the reconstructed counts.
///
/// Superblocks: hot single-predecessor block chains are additionally
/// collapsed into superblock streams (SuperEntry + interior ops with
/// cumulative cold data + Guard side-exits), so interior block
/// boundaries cost nothing. Every block keeps its standalone per-block
/// stream — the superblock is an alternate entry used by resolved edges;
/// the watchdog gate at SuperEntry falls back to the per-block stream
/// whenever the whole chain might not fit in the remaining budget.
///
/// Exactness escape hatches: a block whose code can observe per-
/// instruction state — a statically illegal register operand (the Err
/// latch), an armed fault injector, strict shift trapping, or a watchdog
/// that may fire inside the block — is executed by the slow tier, which
/// is the interpreter's own step function (sim::step, src/sim/Step.h)
/// over the same register frame: one copy of the semantics, so the
/// Err-latch timing and injector draw order match by construction.
/// Everything else runs on the threaded dispatch loop with zero
/// per-instruction bookkeeping.
///
/// Memory-access cycle costs are *not* folded into the cold prefix sums:
/// each memory op carries its flat cost in FastOp::Y. That split is what
/// makes the stream resumable: SegmentContext::run charges Y into the
/// block-entry cycle base as the op executes (standalone soak, flat
/// latency), while SegmentContext::resume yields to the whole-chip
/// scheduler instead and absorbs whatever contention-dependent charge
/// the caller applied — with spill-window rebasing — keeping the chip's
/// discrete-event schedule bit-identical to the interpreted chip.
///
//===----------------------------------------------------------------------===//

#ifndef FASTPATH_FASTPATH_H
#define FASTPATH_FASTPATH_H

#include "fastpath/BatchMemory.h"
#include "sim/ExecContext.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nova {
namespace fastpath {

/// Frame layout: the sim::FrameRegs register slots, then folded constants.
using sim::FrameRegs;

/// Specialized opcodes of the pre-decoded stream.
enum class FOp : uint8_t {
  BlockEntry, ///< X=block id: watchdog/slow-path gate, saves counters
  AluAdd, AluSub, AluAnd, AluOr, AluXor, AluShl, AluShr, AluNot,
  Copy,       ///< Frame[D] = Frame[A] (Move, and Imm via a const slot)
  Hash,       ///< Frame[D] = hwHash(Frame[A])
  MemRead,    ///< Aux=space, A=addr slot, N dsts at Pool[X]
  MemWrite,   ///< Aux=space, A=addr slot, N srcs at Pool[X]
  BitTestSet, ///< Aux=space, A=addr, B=bits, D=old value
  BranchEq, BranchNe, BranchLt, BranchGt, BranchLe, BranchGe,
              ///< A,B compared; goto op X (then) / Y (else)
  Jump,       ///< goto op X
  Halt,       ///< push N frame slots at Pool[X]; Ok
  TrapStatic, ///< Aux=TrapKind, X=message index; counts from cold data
  SuperEntry, ///< X=head block id, Y=chain max path: superblock gate
  GuardEq, GuardNe, GuardLt, GuardGt, GuardLe, GuardGe,
              ///< superblock side-exit: continue when cmp == Aux,
              ///< else exit to op X with cumulative counts + branch cost
  FuseCopyAdd, FuseCopySub, FuseCopyAnd, FuseCopyOr, FuseCopyXor,
  FuseCopyShl, FuseCopyShr, FuseCopyNot,
              ///< fused pair: Frame[X] = Frame[Y], then the ALU op
              ///< A,B -> D — both writes in program order, one dispatch
  FuseCopyCopy, ///< fused pair: Frame[X] = Frame[Y]; Frame[D] = Frame[A]
  FuseShlAdd,   ///< fused address idiom: D = Frame[X] + (Frame[A]<<Frame[B])
  FuseCopyMemRead, FuseCopyMemWrite,
              ///< Frame[D] = Frame[B], then the memory op (A=addr, N,
              ///< X=pool, Y=cost, Aux=space); carries the memory op's
              ///< cold data — it is a trap and yield point
};

struct FastOp {
  FOp Kind = FOp::TrapStatic;
  uint8_t Aux = 0;  ///< MemSpace for memory ops, TrapKind for TrapStatic,
                    ///< continue-polarity for Guard ops
  uint16_t A = 0;   ///< frame slot: src0 / address
  uint16_t B = 0;   ///< frame slot: src1 / bits
  uint16_t D = 0;   ///< frame slot: destination
  uint32_t N = 0;   ///< word count (MemRead/MemWrite/Halt)
  uint32_t X = 0;   ///< target op / pool offset / message index
  uint32_t Y = 0;   ///< branch else-target op; flat cycle cost for memory
                    ///< ops; chain max path for SuperEntry
};

/// Cold per-op data consulted only on block exits and traps.
struct ColdInfo {
  uint32_t InsDelta = 0;  ///< instructions from block entry through this op
  uint32_t CycPrefix = 0; ///< cycles charged by the ops before this one
};

struct BlockMeta {
  uint32_t FirstOp = 0; ///< index of the block's BlockEntry op
  uint32_t EnterOp = 0; ///< entry from a block boundary: the superblock
                        ///< entry when this block heads a chain, else
                        ///< FirstOp
  uint32_t MaxPath = 0; ///< max instruction count a traversal can consume
  bool ForceSlow = false; ///< statically illegal register operand inside
};

/// Translation knobs. The default — superblocks on — is what both the
/// soak harness and the chip use; the differential fuzz also exercises
/// the plain per-block translation to triangulate.
struct TranslateOptions {
  bool Superblocks = true; ///< collapse single-predecessor chains
  unsigned MaxChain = 32;  ///< longest chain merged into one superblock
};

/// A translated program. Holds a pointer to the source program (for the
/// per-instruction slow tier), so the AllocatedProgram must outlive it.
struct Translated {
  const alloc::AllocatedProgram *Prog = nullptr;
  sim::LatencyModel Lat; ///< the model the cycle folding assumed
  std::vector<FastOp> Ops;
  std::vector<ColdInfo> Cold;     ///< parallel to Ops
  std::vector<uint16_t> Pool;     ///< operand lists (frame slots)
  std::vector<uint32_t> Consts;   ///< frame slots FrameRegs..
  std::vector<std::string> Messages;
  std::vector<BlockMeta> Meta;
  bool EntryValid = false;
  unsigned SlowBlocks = 0;    ///< blocks pinned to the slow path
  unsigned Superblocks = 0;   ///< single-predecessor chains collapsed
  unsigned SuperblockOps = 0; ///< ops emitted into superblock streams
  unsigned FusedOps = 0;      ///< adjacent op pairs merged into one dispatch

  unsigned frameSize() const {
    return FrameRegs + static_cast<unsigned>(Consts.size());
  }
};

/// Translates \p P for execution under \p Lat. Never fails: malformed
/// constructs translate to trap ops with the interpreter's exact
/// messages.
Translated translate(const alloc::AllocatedProgram &P,
                     const sim::LatencyModel &Lat);
Translated translate(const alloc::AllocatedProgram &P,
                     const sim::LatencyModel &Lat,
                     const TranslateOptions &Options);

} // namespace fastpath
} // namespace nova

#endif // FASTPATH_FASTPATH_H
