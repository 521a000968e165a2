//===- Eval.cpp - Reference CPS interpreter -------------------------------===//
//
// Part of the nova-ixp project: a reproduction of "Taming the IXP Network
// Processor" (PLDI 2003).
//
//===----------------------------------------------------------------------===//
//
// The interpreter implements full closure semantics: a Fix node creates
// closures capturing the current environment, and a jump enters the
// callee's captured environment. Compiled Nova never *needs* heap
// closures (the paper's restriction guarantees it), but the unoptimized
// CPS of a tail-recursive function still instantiates a fresh return
// continuation per activation, so the oracle must be closure-correct to
// judge every stage of the pipeline.
//
//===----------------------------------------------------------------------===//

#include "cps/Eval.h"

#include "support/HwHash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <memory>

using namespace nova;
using namespace nova::cps;

namespace {

struct Frame;
using FrameRef = std::shared_ptr<Frame>;

/// A runtime value: a word, possibly carrying a closure.
struct Value {
  uint32_t Data = 0;
  FuncId Func = NoFunc;
  FrameRef Env; ///< captured environment when Func != NoFunc
};

/// One environment frame; chains to the lexical parent.
struct Frame {
  std::map<ValueId, Value> Vals;
  /// Functions a Fix defined here. Their closures capture this frame;
  /// lookupClosure builds them on demand, because a frame storing its
  /// own closures would hold a reference to itself and never be freed.
  std::vector<FuncId> Funcs;
  FrameRef Parent;
};

const Value *lookupValue(const FrameRef &Env, ValueId Id) {
  for (const Frame *F = Env.get(); F; F = F->Parent.get()) {
    auto It = F->Vals.find(Id);
    if (It != F->Vals.end())
      return &It->second;
  }
  return nullptr;
}

/// The closure of function \p Id: it captures the innermost frame whose
/// Fix defined \p Id. Top-level functions are closed.
Value lookupClosure(const FrameRef &Env, FuncId Id) {
  for (const FrameRef *F = &Env; *F; F = &(*F)->Parent)
    if (std::find((*F)->Funcs.begin(), (*F)->Funcs.end(), Id) !=
        (*F)->Funcs.end())
      return {0, Id, *F};
  return {0, Id, nullptr};
}

struct Machine {
  const CpsProgram &P;
  EvalMemory &Mem;
  EvalResult Result;

  Machine(const CpsProgram &P, EvalMemory &Mem) : P(P), Mem(Mem) {}

  Value atom(const FrameRef &Env, const Atom &A) {
    switch (A.K) {
    case Atom::Kind::Temp: {
      const Value *V = lookupValue(Env, A.Id);
      if (V)
        return *V;
      Result.Error = formatf("use of unbound value v%u", A.Id);
      return {};
    }
    case Atom::Kind::Const:
      return {A.Value, NoFunc, nullptr};
    case Atom::Kind::Label:
      return lookupClosure(Env, A.Func);
    }
    return {};
  }

  // ALU and comparison semantics are the shared definitions in cps/Ir.h;
  // the oracle must agree with the simulator by construction.
  static uint32_t evalPrim(PrimOp Op, uint32_t A, uint32_t B) {
    return cps::evalPrim(Op, A, B);
  }

  static bool evalCmp(CmpOp Op, uint32_t A, uint32_t B) {
    return cps::evalCmp(Op, A, B);
  }

  void run(const std::vector<uint32_t> &Args, unsigned MaxSteps) {
    const Function &Entry = P.func(P.Entry);
    if (Args.size() != Entry.Params.size()) {
      Result.Error = formatf("entry takes %zu args, got %zu",
                             Entry.Params.size(), Args.size());
      return;
    }
    FrameRef Env = std::make_shared<Frame>();
    for (unsigned I = 0; I != Args.size(); ++I)
      Env->Vals[Entry.Params[I]] = {Args[I], NoFunc, nullptr};

    const Exp *E = Entry.Body;
    while (E) {
      if (++Result.Steps > MaxSteps) {
        Result.Error = "step limit exceeded (diverging program?)";
        return;
      }
      if (!Result.Error.empty())
        return;
      switch (E->Kind) {
      case ExpKind::Prim: {
        uint32_t A = atom(Env, E->Args[0]).Data;
        uint32_t B = E->Args.size() > 1 ? atom(Env, E->Args[1]).Data : 0;
        Env->Vals[E->Results[0]] = {evalPrim(E->Prim, A, B), NoFunc,
                                    nullptr};
        E = E->Cont;
        break;
      }
      case ExpKind::MemRead: {
        uint32_t Addr = atom(Env, E->Args[0]).Data;
        auto *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "memory read from an invalid space";
          return;
        }
        for (unsigned I = 0; I != E->Results.size(); ++I)
          Env->Vals[E->Results[I]] = {EvalMemory::load(*M, Addr + I),
                                      NoFunc, nullptr};
        E = E->Cont;
        break;
      }
      case ExpKind::MemWrite: {
        uint32_t Addr = atom(Env, E->Args[0]).Data;
        auto *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "memory write to an invalid space";
          return;
        }
        for (unsigned I = 1; I != E->Args.size(); ++I)
          (*M)[Addr + I - 1] = atom(Env, E->Args[I]).Data;
        E = E->Cont;
        break;
      }
      case ExpKind::Hash:
        Env->Vals[E->Results[0]] = {hwHash(atom(Env, E->Args[0]).Data),
                                    NoFunc, nullptr};
        E = E->Cont;
        break;
      case ExpKind::BitTestSet: {
        uint32_t Addr = atom(Env, E->Args[0]).Data;
        uint32_t Bits = atom(Env, E->Args[1]).Data;
        auto *M = Mem.space(E->Space);
        if (!M) {
          Result.Error = "bit-test-set in an invalid space";
          return;
        }
        uint32_t Old = EvalMemory::load(*M, Addr);
        (*M)[Addr] = Old | Bits;
        Env->Vals[E->Results[0]] = {Old, NoFunc, nullptr};
        E = E->Cont;
        break;
      }
      case ExpKind::Clone: {
        Value V = atom(Env, E->Args[0]);
        for (ValueId R : E->Results)
          Env->Vals[R] = V;
        E = E->Cont;
        break;
      }
      case ExpKind::Fix: {
        // Closures capture the frame that contains them (enabling mutual
        // recursion within one Fix).
        FrameRef Fresh = std::make_shared<Frame>();
        Fresh->Parent = Env;
        Fresh->Funcs = E->FixFuncs;
        Env = Fresh;
        E = E->Cont;
        break;
      }
      case ExpKind::Branch: {
        uint32_t A = atom(Env, E->Args[0]).Data;
        uint32_t B = atom(Env, E->Args[1]).Data;
        E = evalCmp(E->Cmp, A, B) ? E->Then : E->Else;
        break;
      }
      case ExpKind::App: {
        Value Callee = atom(Env, E->Callee);
        if (Callee.Func == NoFunc) {
          Result.Error = "indirect jump to a non-label value";
          return;
        }
        const Function &Fn = P.func(Callee.Func);
        if (!Fn.Body) {
          Result.Error = formatf("jump to dead function f%u_%s",
                                 Callee.Func, Fn.Name.c_str());
          return;
        }
        if (Fn.Params.size() != E->Args.size()) {
          Result.Error = formatf("arity mismatch jumping to f%u_%s",
                                 Callee.Func, Fn.Name.c_str());
          return;
        }
        FrameRef Fresh = std::make_shared<Frame>();
        Fresh->Parent = Callee.Env;
        for (unsigned I = 0; I != E->Args.size(); ++I)
          Fresh->Vals[Fn.Params[I]] = atom(Env, E->Args[I]);
        Env = Fresh;
        E = Fn.Body;
        break;
      }
      case ExpKind::Halt:
        for (const Atom &A : E->Args)
          Result.HaltValues.push_back(atom(Env, A).Data);
        Result.Ok = Result.Error.empty();
        return;
      }
    }
    if (Result.Error.empty())
      Result.Error = "fell off the end of an expression chain";
  }
};

} // namespace

EvalResult cps::evaluate(const CpsProgram &P,
                         const std::vector<uint32_t> &Args, EvalMemory &Mem,
                         unsigned MaxSteps) {
  if (P.Entry == NoFunc) {
    EvalResult R;
    R.Error = "program has no entry";
    return R;
  }
  Machine M(P, Mem);
  M.run(Args, MaxSteps);
  return M.Result;
}
