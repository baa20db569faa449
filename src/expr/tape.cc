#include "expr/tape.h"

#include <cstring>
#include <unordered_map>

#include "expr/op_kernels.h"
#include "support/logging.h"

namespace felix {
namespace expr {

namespace {

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

const uint64_t kOneBits = bitsOf(1.0);
const uint64_t kPosZeroBits = bitsOf(0.0);
const uint64_t kNegZeroBits = bitsOf(-0.0);

/**
 * Provisional operand reference while the pass runs: the final slot
 * numbers are only known after DCE decides which constants and
 * instructions survive.
 */
struct Ref
{
    enum Kind : uint8_t { kConst, kVar, kOp, kNone };
    Kind kind = kNone;
    int32_t index = -1;   ///< const pool / var / kept-instruction idx

    bool operator==(const Ref &other) const
    {
        return kind == other.kind && index == other.index;
    }
};

struct KeptInstr
{
    OpCode op;
    Ref a0, a1, a2;
};

/** Const pool deduplicated by bit pattern, in first-seen order. */
class ConstPool
{
  public:
    Ref
    add(double value)
    {
        uint64_t bits = bitsOf(value);
        auto [it, inserted] =
            index_.emplace(bits, static_cast<int32_t>(values_.size()));
        if (inserted)
            values_.push_back(value);
        return Ref{Ref::kConst, it->second};
    }

    double value(int32_t index) const { return values_[index]; }
    size_t size() const { return values_.size(); }

  private:
    std::vector<double> values_;
    std::unordered_map<uint64_t, int32_t> index_;
};

bool
isConstBits(const ConstPool &pool, const Ref &ref, uint64_t bits)
{
    return ref.kind == Ref::kConst && bitsOf(pool.value(ref.index)) == bits;
}

} // namespace

RawTape
buildRawTape(const std::vector<Expr> &roots,
             const std::vector<std::string> &var_names)
{
    RawTape raw;
    raw.numVars = var_names.size();

    std::unordered_map<std::string, int32_t> varSlot;
    for (size_t i = 0; i < var_names.size(); ++i)
        varSlot.emplace(var_names[i], static_cast<int32_t>(i));

    // Topologically order the distinct nodes via iterative DFS and
    // assign each a tape slot.
    std::unordered_map<const ExprNode *, int32_t> slotOf;
    std::vector<std::pair<Expr, size_t>> stack;
    for (const Expr &root : roots) {
        FELIX_CHECK(root.defined(), "compiling undefined expression");
        if (slotOf.count(root.get()))
            continue;
        stack.emplace_back(root, 0);
        while (!stack.empty()) {
            auto &[node, child] = stack.back();
            if (slotOf.count(node.get())) {
                stack.pop_back();
                continue;
            }
            if (child < node->args().size()) {
                Expr next = node->args()[child++];
                if (!slotOf.count(next.get()))
                    stack.emplace_back(next, 0);
                continue;
            }
            RawInstr instr;
            instr.op = node->op();
            if (node.isConst()) {
                instr.payload = node.constValue();
            } else if (node.isVar()) {
                auto it = varSlot.find(node.varName());
                FELIX_CHECK(it != varSlot.end(),
                            "variable not in slot order: ",
                            node.varName());
                instr.payload = static_cast<double>(it->second);
            } else {
                const auto &args = node->args();
                instr.a0 = slotOf.at(args[0].get());
                if (args.size() > 1)
                    instr.a1 = slotOf.at(args[1].get());
                if (args.size() > 2)
                    instr.a2 = slotOf.at(args[2].get());
            }
            slotOf.emplace(node.get(),
                           static_cast<int32_t>(raw.instrs.size()));
            raw.instrs.push_back(instr);
            stack.pop_back();
        }
    }
    for (const Expr &root : roots)
        raw.outputSlots.push_back(slotOf.at(root.get()));
    return raw;
}

TapeProgram
optimizeTape(const RawTape &raw, bool forward_only, TapeOptStats *stats)
{
    TapeOptStats local;
    TapeOptStats &s = stats ? *stats : local;
    s = TapeOptStats{};

    ConstPool pool;
    std::vector<KeptInstr> kept;
    std::vector<Ref> res(raw.instrs.size());

    // ---- Pass 1: leaf hoisting, constant folding, and (on
    // forward-only tapes) identity forwarding, in one in-order walk.
    // Operands are resolved through `res`, so forwarding chains
    // collapse as they are built.
    for (size_t i = 0; i < raw.instrs.size(); ++i) {
        const RawInstr &instr = raw.instrs[i];
        if (instr.op == OpCode::ConstOp) {
            res[i] = pool.add(instr.payload);
            ++s.leavesHoisted;
            continue;
        }
        if (instr.op == OpCode::VarOp) {
            int32_t var = static_cast<int32_t>(instr.payload);
            FELIX_CHECK(var >= 0 &&
                            var < static_cast<int32_t>(raw.numVars),
                        "raw tape references variable ", var,
                        " outside [0, ", raw.numVars, ")");
            res[i] = Ref{Ref::kVar, var};
            ++s.leavesHoisted;
            continue;
        }

        const int arity = opArity(instr.op);
        Ref r0 = res[instr.a0];
        Ref r1 = arity > 1 ? res[instr.a1] : Ref{};
        Ref r2 = arity > 2 ? res[instr.a2] : Ref{};

        // Exact constant folding: evaluate with the same inlined
        // kernel the runtime would use, so the folded constant is
        // bit-identical to the value the tape would have computed.
        bool allConst = r0.kind == Ref::kConst &&
                        (arity < 2 || r1.kind == Ref::kConst) &&
                        (arity < 3 || r2.kind == Ref::kConst);
        if (allConst) {
            double vals[3] = {pool.value(r0.index),
                              arity > 1 ? pool.value(r1.index) : 0.0,
                              arity > 2 ? pool.value(r2.index) : 0.0};
            res[i] = pool.add(opk::evalOpInline(instr.op, vals));
            ++s.constFolded;
            continue;
        }

        // Identity forwarding. Only rewrites whose replacement is
        // bit-identical for every IEEE-754 input are allowed (note
        // the signed-zero asymmetry between x-0 and x+0), and only
        // on forward-only tapes — redirecting consumers changes
        // *where* in the reverse sweep an adjoint contribution
        // lands, which reorders floating-point accumulation.
        if (forward_only) {
            Ref fwd;   // kNone = no rule fired
            switch (instr.op) {
              case OpCode::Mul:
                if (isConstBits(pool, r0, kOneBits))
                    fwd = r1;
                else if (isConstBits(pool, r1, kOneBits))
                    fwd = r0;
                break;
              case OpCode::Div:
              case OpCode::Pow:
                if (isConstBits(pool, r1, kOneBits))
                    fwd = r0;
                break;
              case OpCode::Add:
                // x + (-0.0) == x for every x; x + (+0.0) is NOT an
                // identity (it maps -0.0 to +0.0), so +0 stays.
                if (isConstBits(pool, r0, kNegZeroBits))
                    fwd = r1;
                else if (isConstBits(pool, r1, kNegZeroBits))
                    fwd = r0;
                break;
              case OpCode::Sub:
                // x - (+0.0) == x for every x; x - (-0.0) is not.
                if (isConstBits(pool, r1, kPosZeroBits))
                    fwd = r0;
                break;
              case OpCode::Neg:
                // Double negation: -(-x) == x bit for bit.
                if (r0.kind == Ref::kOp &&
                    kept[r0.index].op == OpCode::Neg)
                    fwd = kept[r0.index].a0;
                break;
              case OpCode::Min:
              case OpCode::Max:
                if (r0 == r1)
                    fwd = r0;
                break;
              case OpCode::Select:
                if (r0.kind == Ref::kConst)
                    fwd = pool.value(r0.index) != 0.0 ? r1 : r2;
                else if (r1 == r2)
                    fwd = r1;
                break;
              default:
                break;
            }
            if (fwd.kind != Ref::kNone) {
                res[i] = fwd;
                ++s.identityForwarded;
                continue;
            }
        }

        kept.push_back(KeptInstr{instr.op, r0, r1, r2});
        res[i] = Ref{Ref::kOp,
                     static_cast<int32_t>(kept.size() - 1)};
    }

    std::vector<Ref> outputs;
    outputs.reserve(raw.outputSlots.size());
    for (int32_t slot : raw.outputSlots) {
        FELIX_CHECK(slot >= 0 &&
                        slot < static_cast<int32_t>(res.size()),
                    "raw tape output slot out of range");
        outputs.push_back(res[slot]);
    }

    // ---- Pass 2: liveness from the outputs. Removing a dead
    // instruction never changes gradients: a slot nothing consumes
    // and no output seeds keeps a zero adjoint, and zero adjoints
    // are skipped by the reverse sweep.
    std::vector<char> opLive(kept.size(), 0);
    std::vector<char> constLive(pool.size(), 0);
    auto markRef = [&](const Ref &ref) {
        if (ref.kind == Ref::kOp)
            opLive[ref.index] = 1;
        else if (ref.kind == Ref::kConst)
            constLive[ref.index] = 1;
    };
    for (const Ref &ref : outputs)
        markRef(ref);
    for (size_t i = kept.size(); i-- > 0;) {
        if (!opLive[i])
            continue;
        markRef(kept[i].a0);
        markRef(kept[i].a1);
        markRef(kept[i].a2);
    }

    // ---- Pass 3: slot renumbering. Surviving constants and
    // instructions are compacted into [consts | vars | ops] while
    // preserving relative instruction order — the reverse sweep must
    // visit survivors in exactly the raw order for adjoint
    // accumulation to stay bit-identical.
    TapeProgram program;
    program.numVars = raw.numVars;
    program.forwardOnly = forward_only;
    program.rawSize = raw.instrs.size();

    std::vector<int32_t> constSlot(pool.size(), -1);
    for (size_t c = 0; c < pool.size(); ++c) {
        if (constLive[c]) {
            constSlot[c] =
                static_cast<int32_t>(program.constants.size());
            program.constants.push_back(pool.value(
                static_cast<int32_t>(c)));
        }
    }
    const int32_t varBase =
        static_cast<int32_t>(program.constants.size());
    const int32_t opBase =
        varBase + static_cast<int32_t>(raw.numVars);

    std::vector<int32_t> opSlot(kept.size(), -1);
    int32_t nextOp = 0;
    for (size_t i = 0; i < kept.size(); ++i) {
        if (opLive[i])
            opSlot[i] = opBase + nextOp++;
        else
            ++s.deadRemoved;
    }
    auto finalSlot = [&](const Ref &ref) -> int32_t {
        switch (ref.kind) {
          case Ref::kConst: return constSlot[ref.index];
          case Ref::kVar: return varBase + ref.index;
          case Ref::kOp: return opSlot[ref.index];
          case Ref::kNone: return -1;
        }
        return -1;
    };
    program.instrs.reserve(static_cast<size_t>(nextOp));
    for (size_t i = 0; i < kept.size(); ++i) {
        if (!opLive[i])
            continue;
        TapeInstr instr;
        instr.op = kept[i].op;
        instr.a0 = finalSlot(kept[i].a0);
        instr.a1 = finalSlot(kept[i].a1);
        instr.a2 = finalSlot(kept[i].a2);
        program.instrs.push_back(instr);
    }
    program.outputSlots.reserve(outputs.size());
    for (const Ref &ref : outputs)
        program.outputSlots.push_back(finalSlot(ref));
    return program;
}

void
programForward(const TapeProgram &program, double *values)
{
    size_t slot = program.firstOpSlot();
    for (const TapeInstr &instr : program.instrs) {
        double args[3] = {0, 0, 0};
        args[0] = values[instr.a0];
        if (instr.a1 >= 0)
            args[1] = values[instr.a1];
        if (instr.a2 >= 0)
            args[2] = values[instr.a2];
        values[slot++] = opk::evalOpInline(instr.op, args);
    }
}

} // namespace expr
} // namespace felix
