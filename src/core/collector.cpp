#include "src/core/collector.h"

#include <algorithm>
#include <array>
#include <set>
#include <stdexcept>

#include "src/bytecode/insn.h"
#include "src/core/files.h"
#include "src/runtime/object.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/log.h"

namespace dexlego::core {

uint64_t TreeNode::fingerprint() const {
  support::Fnv1a h;
  h.add(il.size());
  for (const ILEntry& e : il) {
    h.add(e.pc);
    for (uint16_t u : e.units) h.add(u);
    if (e.ref) {
      h.add(static_cast<uint64_t>(e.ref->kind));
      for (const std::string& p : e.ref->parts) h.add(support::fnv1a(p));
    }
  }
  h.add(sm_start);
  h.add(sm_end ? *sm_end + 1 : 0);
  for (const auto& child : children) h.add(child->fingerprint());
  return h.digest();
}

MethodKey Collector::key_of(const rt::RtMethod& method) {
  return MethodKey{
      method.declaring != nullptr ? method.declaring->descriptor : "?",
      method.name, method.shorty};
}

namespace {

// Feeds `part` the parts of the symbolic form of a `kind` pool reference to
// `idx`, in SymRef order, until it returns false; returns whether it took
// them all. Throws std::out_of_range for an index outside the pools.
template <typename Part>
bool for_each_ref_part(const dex::DexFile& file, bc::RefKind kind,
                       uint16_t idx, Part&& part) {
  switch (kind) {
    case bc::RefKind::kString:
      return part(file.string_at(idx));
    case bc::RefKind::kType:
      return part(file.type_descriptor(idx));
    case bc::RefKind::kField: {
      const dex::FieldRef& f = file.fields.at(idx);
      return part(file.type_descriptor(f.class_type)) &&
             part(file.type_descriptor(f.type)) && part(file.string_at(f.name));
    }
    case bc::RefKind::kMethod: {
      const dex::MethodRef& m = file.methods.at(idx);
      const dex::Proto& proto = file.protos.at(m.proto);
      if (!part(file.type_descriptor(m.class_type)) ||
          !part(file.string_at(m.name)) ||
          !part(file.type_descriptor(proto.return_type))) {
        return false;
      }
      for (uint32_t p : proto.param_types) {
        if (!part(file.type_descriptor(p))) return false;
      }
      return true;
    }
    case bc::RefKind::kNone:
      break;
  }
  return true;
}

// The symbolic form of a decoded instruction's pool operand, resolved
// against the method's defining image; nullopt when it has none. A pure
// function of the image and the instruction's units.
std::optional<SymRef> symbolic_ref(const rt::RtMethod& method,
                                   const bc::Insn& insn) {
  bc::RefKind kind = bc::op_info(insn.op).ref;
  if (kind == bc::RefKind::kNone) return std::nullopt;
  SymRef ref;
  ref.kind = kind;
  for_each_ref_part(method.image->file, kind, insn.idx,
                    [&](const std::string& part) {
                      ref.parts.push_back(part);
                      return true;
                    });
  return ref;
}

// The switch snapshot of a packed-switch at `dex_pc`. Throws
// support::ParseError or std::out_of_range for an unreadable payload.
SwitchSnapshot switch_snapshot(std::span<const uint16_t> code, uint32_t dex_pc,
                               const bc::Insn& insn) {
  bc::SwitchPayload payload = bc::read_switch_payload(code, dex_pc, insn);
  SwitchSnapshot snap;
  snap.first_key = payload.first_key;
  for (int32_t rel : payload.rel_targets) {
    snap.target_pcs.push_back(
        static_cast<uint16_t>(static_cast<int32_t>(dex_pc) + rel));
  }
  return snap;
}

// Whether switch_snapshot(code, dex_pc, insn) would equal `snap`, read in
// place. Throws where switch_snapshot does.
bool same_switch(const SwitchSnapshot& snap, std::span<const uint16_t> code,
                 uint32_t dex_pc, const bc::Insn& insn) {
  size_t payload_pc = dex_pc + static_cast<size_t>(insn.off);
  bc::Insn payload = bc::decode_at(code, payload_pc);
  if (payload.op != bc::Op::kPayload) {
    throw support::ParseError("switch target is not a payload");
  }
  if (snap.first_key != static_cast<int32_t>(payload.lit) ||
      snap.target_pcs.size() != payload.payload_count) {
    return false;
  }
  for (size_t i = 0; i < snap.target_pcs.size(); ++i) {
    int32_t rel = static_cast<int16_t>(code[payload_pc + 4 + i]);
    if (snap.target_pcs[i] !=
        static_cast<uint16_t>(static_cast<int32_t>(dex_pc) + rel)) {
      return false;
    }
  }
  return true;
}

// Whether the instruction whose first code unit is `unit0` has a pool
// operand or is a packed-switch, or is no instruction at all: whether
// comparing it takes the decoded instruction.
bool needs_decode(uint16_t unit0) {
  static const std::array<bool, 256> table = [] {
    std::array<bool, 256> t{};
    for (size_t raw = 0; raw < t.size(); ++raw) {
      const auto op = static_cast<bc::Op>(raw);
      t[raw] = !bc::valid_op(static_cast<uint8_t>(raw)) ||
               bc::op_info(op).ref != bc::RefKind::kNone ||
               op == bc::Op::kPackedSwitch;
    }
    return t;
  }();
  return table[unit0 & 0xff];
}

// Whether `units` are the code units at `dex_pc`.
bool units_at(const std::vector<uint16_t>& units,
              std::span<const uint16_t> code, uint32_t dex_pc) {
  return !units.empty() && dex_pc <= code.size() &&
         units.size() <= code.size() - dex_pc &&
         std::ranges::equal(units, code.subspan(dex_pc, units.size()));
}

// Whether `entry` is, but for its pc, the ILEntry on_instruction would build
// for the instruction at `dex_pc` of `method`: the same units, SymRef and
// switch snapshot. The units are compared first, in place. Equal units
// decode as the entry's did, so only an entry whose instruction has a pool
// operand or is a packed-switch needs the decoded instruction: `insn`,
// decoded on first use and kept for the next entry. The pool strings and
// the payload are read in place. Throws wherever building the entry would.
bool same_entry(const ILEntry& entry, const rt::RtMethod& method,
                std::span<const uint16_t> code, uint32_t dex_pc,
                std::optional<bc::Insn>& insn) {
  if (!units_at(entry.units, code, dex_pc)) return false;
  if (!entry.ref && !entry.switch_payload && !needs_decode(entry.units[0])) {
    return true;
  }
  if (!insn) insn = bc::decode_at(code, dex_pc);
  bc::RefKind kind = bc::op_info(insn->op).ref;
  if (kind == bc::RefKind::kNone) {
    if (entry.ref) return false;
  } else {
    if (!entry.ref || entry.ref->kind != kind) return false;
    const std::vector<std::string>& parts = entry.ref->parts;
    size_t n = 0;
    if (!for_each_ref_part(method.image->file, kind, insn->idx,
                           [&](const std::string& part) {
                             return n < parts.size() && parts[n++] == part;
                           }) ||
        n != parts.size()) {
      return false;
    }
  }
  if (insn->op != bc::Op::kPackedSwitch) return !entry.switch_payload;
  return entry.switch_payload &&
         same_switch(*entry.switch_payload, code, dex_pc, *insn);
}

std::vector<CollectedField> snapshot_statics(const rt::RtClass& cls) {
  std::vector<CollectedField> fields;
  for (const rt::RtField& f : cls.static_fields) {
    CollectedField cf;
    cf.name = f.name;
    cf.type_descriptor = f.type_descriptor;
    cf.access_flags = f.access_flags;
    const rt::Value& v = cls.static_values.at(f.slot);
    if (!v.is_ref()) {
      cf.static_value.kind = CollectedValue::Kind::kInt;
      cf.static_value.i = v.i;
    } else if (v.ref != nullptr && v.ref->kind == rt::Object::Kind::kString) {
      cf.static_value.kind = CollectedValue::Kind::kString;
      cf.static_value.s = v.ref->str;
    } else {
      cf.static_value.kind = CollectedValue::Kind::kNull;
    }
    fields.push_back(std::move(cf));
  }
  return fields;
}

}  // namespace

Collector::Collector(const Options& options, const CollectionOutput* known)
    : options_(options), known_(known) {
  if (known_ == nullptr) return;
  for (const CollectedClass& c : known_->classes) {
    known_classes_.push_back(c.descriptor);
  }
  std::ranges::sort(known_classes_);
}

void Collector::on_dex_loaded(const rt::DexImage& image) {
  if (image.id != 0) return;  // not the first image of a new runtime
  for (Activation& act : stack_) act.method = nullptr;
}

void Collector::on_class_loaded(rt::RtClass& cls) { class_slot(cls); }

void Collector::on_class_initialized(rt::RtClass& cls) {
  // Load always precedes initialization, but be defensive about hooks
  // attached mid-run (force execution re-runs apps on a shared collector).
  size_t slot = class_slot(cls);
  if (slot != kKnownClass) {
    output_.classes[slot].static_fields = snapshot_statics(cls);
  }
}

// The index of `cls`'s snapshot in output_.classes, taken the first time the
// class is seen; kKnownClass, with no snapshot, for a class `known_` holds.
size_t Collector::class_slot(rt::RtClass& cls) {
  auto it = class_index_.find(cls.descriptor);
  if (it != class_index_.end()) return it->second;
  size_t slot = kKnownClass;
  if (!std::ranges::binary_search(known_classes_,
                                  std::string_view(cls.descriptor))) {
    CollectedClass out;
    out.descriptor = cls.descriptor;
    out.super_descriptor = cls.super_descriptor;
    out.access_flags = cls.access_flags;
    for (const rt::RtField& f : cls.instance_fields) {
      CollectedField cf;
      cf.name = f.name;
      cf.type_descriptor = f.type_descriptor;
      cf.access_flags = f.access_flags;
      out.instance_fields.push_back(std::move(cf));
    }
    out.static_fields = snapshot_statics(cls);
    slot = output_.classes.size();
    output_.classes.push_back(std::move(out));
  }
  class_index_.emplace(cls.descriptor, slot);
  return slot;
}

// `method`'s record in output_; `known` is set to known_'s, if it has one.
MethodRecord& Collector::record_for(rt::RtMethod& method,
                                    const MethodRecord*& known) {
  MethodKey key = key_of(method);
  known = known_ != nullptr ? known_->find_method(key) : nullptr;
  auto it = output_.methods.find(key);
  if (it != output_.methods.end()) return it->second;

  MethodRecord rec;
  rec.key = key;
  // merge_collection reads only the counters, trees and reflection targets
  // of a record it already has: a method `known_` holds keeps its own.
  if (known == nullptr) {
    rec.access_flags = method.access_flags;
    rec.is_native = method.is_native();
    if (method.code) {
      rec.registers_size = method.code->registers_size;
      rec.ins_size = method.code->ins_size;
      rec.tries = method.code->tries;
      rec.lines = method.code->lines;
    }
    // Proto descriptors straight from the defining image.
    if (method.image != nullptr) {
      const dex::DexFile& file = method.image->file;
      const dex::MethodRef& mref = file.methods.at(method.dex_method_idx);
      const dex::Proto& proto = file.protos.at(mref.proto);
      rec.return_type = file.type_descriptor(proto.return_type);
      for (uint32_t p : proto.param_types) {
        rec.param_types.push_back(file.type_descriptor(p));
      }
    }
  }
  return output_.methods.emplace(std::move(key), std::move(rec)).first->second;
}

void Collector::on_method_entry(rt::RtMethod& method) {
  Activation act;
  act.record = &record_for(method, act.known);
  act.method = &method;
  act.bytecode = method.code != nullptr;
  ++act.record->executions;
  act.walk_begin = walk_.size();
  act.prefix_begin = prefix_at_.size();
  if (act.bytecode && act.known != nullptr) {
    for (size_t i = 0; i < act.known->trees.size(); ++i) {
      if (act.known->trees[i]->children.empty()) {
        walk_.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  act.walk_end = walk_.size();
  if (act.bytecode && act.walk_end == act.walk_begin) {
    act.root = std::make_unique<TreeNode>();
    act.current = act.root.get();
  }
  stack_.push_back(std::move(act));
}

// One instruction of the lockstep walk of `act`, the top activation. True
// when the walk accounts for it: it is the next IL entry of a known tree,
// or a repeat Algorithm 1 would skip. Otherwise the instruction is left to
// on_instruction; an exception while comparing first ends the walk, with
// the matched prefix copied into the activation's tree.
bool Collector::walk_step(Activation& act, const rt::RtMethod& method,
                          std::span<const uint16_t> code, uint32_t dex_pc) {
  const uint16_t pc = static_cast<uint16_t>(dex_pc);
  const auto& trees = act.known->trees;
  // A root's entries have distinct pcs, so a tree whose next entry sits at
  // this pc does not hold it in the prefix.
  bool next_at_pc = false;
  size_t kept = act.walk_begin;
  std::optional<bc::Insn> insn;
  try {
    for (size_t w = act.walk_begin; w < act.walk_end; ++w) {
      const std::vector<ILEntry>& il = trees[walk_[w]]->il;
      if (act.matched == il.size() || il[act.matched].pc != pc) continue;
      next_at_pc = true;
      if (same_entry(il[act.matched], method, code, dex_pc, insn)) {
        walk_[kept++] = walk_[w];
      }
    }
  } catch (const support::ParseError&) {
    depart(act);  // Algorithm 1 meets the same error building the entry
    return false;
  } catch (const std::out_of_range&) {
    depart(act);
    return false;
  }
  if (kept > act.walk_begin) {
    if (kept < act.walk_end) {
      act.walk_end = kept;
      walk_.resize(kept);
    }
    size_t slot = act.prefix_begin + pc;
    if (slot >= prefix_at_.size()) prefix_at_.resize(slot + 1);
    prefix_at_[slot] = static_cast<uint32_t>(act.matched++);
    return true;
  }
  if (next_at_pc || act.method == nullptr) return false;
  // Already recorded: the early return on_instruction takes. The slot holds
  // the index of the prefix entry at this pc only if that entry says so.
  size_t slot = act.prefix_begin + pc;
  if (slot >= prefix_at_.size()) return false;
  const std::vector<ILEntry>& il = trees[walk_[act.walk_begin]]->il;
  size_t index = prefix_at_[slot];
  return index < act.matched && il[index].pc == pc &&
         units_at(il[index].units, code, dex_pc);
}

// Ends the walk of `act`, the top activation: its tree becomes the matched
// prefix, which is exactly what Algorithm 1 would have built by now.
void Collector::depart(Activation& act) {
  const TreeNode& tree = *act.known->trees[walk_[act.walk_begin]];
  act.root = std::make_unique<TreeNode>();
  act.root->il.assign(tree.il.begin(),
                      tree.il.begin() + static_cast<std::ptrdiff_t>(act.matched));
  for (size_t i = 0; i < act.matched; ++i) {
    act.root->iim.emplace(act.root->il[i].pc, i);
  }
  act.current = act.root.get();
  act.walk_end = act.walk_begin;
  walk_.resize(act.walk_begin);
  prefix_at_.resize(act.prefix_begin);
}

void Collector::on_instruction(rt::RtMethod& method, uint32_t dex_pc,
                               std::span<const uint16_t> code) {
  ++output_.total_instructions_observed;
  if (too_deep_ || stack_.empty() || !stack_.back().bytecode) return;
  Activation& act = stack_.back();
  if (&method != act.method) {
    // Defensive: a mismatched frame.
    if (act.record->key.name != method.name) return;
    act.method = nullptr;  // the tree now mixes methods: no early return
  }
  if (act.walk_end != act.walk_begin && walk_step(act, method, code, dex_pc)) {
    return;
  }

  // The decode Algorithm 1 builds the entry from. It also bounds the units
  // to `code`: a truncated trailing instruction is undecodable (the runtime
  // raises VerifyError) and leaves nothing to collect, and a walk goes on.
  bc::Insn insn;
  try {
    insn = bc::decode_at(code, dex_pc);
  } catch (const support::ParseError&) {
    return;
  }
  if (act.walk_end != act.walk_begin) depart(act);
  std::span<const uint16_t> units =
      code.subspan(dex_pc, bc::consumed_units(insn));
  const uint16_t pc = static_cast<uint16_t>(dex_pc);

  TreeNode* current = act.current;
  auto it = current->iim.find(pc);
  // Already recorded: the same units at the same pc, from the same method.
  // Its SymRef is a function of the image and the units, so building the
  // entry would only find it equal (Algorithm 1's "same instruction").
  if (it != current->iim.end() && act.method != nullptr &&
      std::ranges::equal(current->il[it->second].units, units)) {
    return;
  }

  // Snapshot the instruction's units *now* — the array may change later.
  ILEntry entry;
  entry.pc = pc;
  entry.units.assign(units.begin(), units.end());
  try {
    entry.ref = symbolic_ref(method, insn);
    if (insn.op == bc::Op::kPackedSwitch) {
      // Payload units are data the interpreter never "executes"; snapshot
      // them as metadata so the reassembler can rebuild the switch.
      entry.switch_payload = switch_snapshot(code, dex_pc, insn);
    }
  } catch (const support::ParseError&) {
    return;  // undecodable payload; nothing to collect
  } catch (const std::out_of_range&) {
    return;
  }

  if (it != current->iim.end()) {
    const ILEntry& old = current->il[it->second];
    if (old.same_instruction(entry)) {
      return;  // same instruction at same index: already recorded
    }
    // Divergence: the instruction at this dex_pc changed since we recorded
    // it — a new layer of self-modifying code (Algorithm 1 lines 9-13).
    if (act.depth == kMaxTreeDepth) {
      too_deep_ = true;
      return;
    }
    auto child = std::make_unique<TreeNode>();
    child->parent = current;
    child->sm_start = entry.pc;
    current->children.push_back(std::move(child));
    act.current = current->children.back().get();
    current = act.current;
    ++act.depth;
    ++output_.divergences_detected;
  } else if (current->parent != nullptr) {
    auto pit = current->parent->iim.find(entry.pc);
    if (pit != current->parent->iim.end()) {
      const ILEntry& old = current->parent->il[pit->second];
      if (old.same_instruction(entry)) {
        // Convergence: this divergence layer ended (Algorithm 1 lines 17-27).
        current->sm_end = entry.pc;
        act.current = current->parent;
        --act.depth;
        return;
      }
    }
  }

  current->iim.emplace(entry.pc, current->il.size());
  current->il.push_back(std::move(entry));
}

void Collector::finish_activation(Activation& act) {
  if (act.walk_end != act.walk_begin) {
    for (size_t w = act.walk_begin; w < act.walk_end; ++w) {
      const size_t i = walk_[w];
      if (act.known->trees[i]->il.size() == act.matched) {
        // A full retrace: its fingerprint is the known tree's, stored unless
        // the record came from decode_collection.
        const MethodRecord& known = *act.known;
        keep_unique(act,
                    known.tree_fingerprints.size() == known.trees.size()
                        ? known.tree_fingerprints[i]
                        : known.trees[i]->fingerprint(),
                    nullptr);
        return;
      }
    }
    depart(act);  // a strict prefix of a known tree, perhaps empty
  }
  if (!act.bytecode || act.root == nullptr || act.root->il.empty()) return;
  uint64_t fp = act.root->fingerprint();
  keep_unique(act, fp, std::move(act.root));
}

// Finishes the top activation and drops it with its walk slices.
void Collector::pop_activation() {
  Activation& act = stack_.back();
  finish_activation(act);
  walk_.resize(act.walk_begin);
  prefix_at_.resize(act.prefix_begin);
  stack_.pop_back();
}

// Keeps `tree` unless its fingerprint `fp` is already kept or the record is
// at its variant cap. A null `tree` is a full retrace of a known tree: it
// counts as kept, but only its fingerprint is.
void Collector::keep_unique(const Activation& act, uint64_t fp,
                            std::unique_ptr<TreeNode> tree) {
  MethodRecord& rec = *act.record;
  size_t retraced = 0;
  for (const auto& [record, kept] : retraced_) {
    if (record != &rec) continue;
    if (kept == fp) return;  // keep unique trees only
    ++retraced;
  }
  if (std::ranges::find(rec.tree_fingerprints, fp) !=
      rec.tree_fingerprints.end()) {
    return;
  }
  if (rec.trees.size() + retraced >= options_.max_variants) {
    ++rec.dropped_trees;
    DL_DEBUG << "variant cap reached for " << rec.key.pretty();
    return;
  }
  if (tree == nullptr) {
    retraced_.emplace_back(&rec, fp);
    return;
  }
  rec.trees.push_back(std::move(tree));
  rec.tree_fingerprints.push_back(fp);
}

void Collector::on_method_exit(rt::RtMethod& method) {
  (void)method;
  if (!stack_.empty()) pop_activation();
}

void Collector::on_reflective_invoke(rt::RtMethod& caller, uint32_t dex_pc,
                                     rt::RtMethod& target) {
  const MethodRecord* known = nullptr;
  MethodRecord& rec = record_for(caller, known);
  SymRef ref;
  ref.kind = bc::RefKind::kMethod;
  const dex::DexFile& file = target.image->file;
  const dex::MethodRef& mref = file.methods.at(target.dex_method_idx);
  const dex::Proto& proto = file.protos.at(mref.proto);
  ref.parts = {target.declaring->descriptor, target.name,
               file.type_descriptor(proto.return_type)};
  for (uint32_t p : proto.param_types) ref.parts.push_back(file.type_descriptor(p));
  // Record whether the target is static so the reassembler can pick the
  // invoke opcode; encoded as an extra trailing marker part.
  ref.parts.push_back(target.is_static() ? "#static" : "#virtual");
  auto [it, inserted] =
      rec.reflection_targets.emplace(static_cast<uint16_t>(dex_pc), ref);
  if (inserted) ++output_.reflection_sites;
  else if (!(it->second == ref)) {
    DL_DEBUG << "multiple reflective targets at " << rec.key.pretty() << "@"
             << dex_pc << " — keeping first";
  }
}

namespace {

// `rec.tree_fingerprints`, hashing the trees first if the record did not
// come from a Collector (decode_collection does not hash).
const std::vector<uint64_t>& tree_fingerprints(MethodRecord& rec) {
  if (rec.tree_fingerprints.size() != rec.trees.size()) {
    rec.tree_fingerprints.clear();
    for (const auto& tree : rec.trees) {
      rec.tree_fingerprints.push_back(tree->fingerprint());
    }
  }
  return rec.tree_fingerprints;
}

}  // namespace

void merge_collection(CollectionOutput& into, CollectionOutput&& from,
                      size_t max_variants) {
  if (!from.classes.empty()) {
    std::set<std::string> have_classes;
    for (const CollectedClass& c : into.classes) {
      have_classes.insert(c.descriptor);
    }
    for (CollectedClass& c : from.classes) {
      if (have_classes.insert(c.descriptor).second) {
        into.classes.push_back(std::move(c));
      }
    }
  }

  for (auto& [key, rec] : from.methods) {
    auto it = into.methods.find(key);
    if (it == into.methods.end()) {
      into.methods.emplace(key, std::move(rec));
      continue;
    }
    MethodRecord& mine = it->second;
    mine.executions += rec.executions;
    mine.dropped_trees += rec.dropped_trees;
    // A tree counts once per call, whether kept before, kept in this call
    // or capped out in it: a capped-out tree is not kept, so a later fold
    // that brings it again counts it again.
    const std::vector<uint64_t>& kept = tree_fingerprints(mine);
    const std::vector<uint64_t>& incoming = tree_fingerprints(rec);
    std::vector<uint64_t> capped;
    for (size_t t = 0; t < rec.trees.size(); ++t) {
      uint64_t fp = incoming[t];
      if (std::ranges::find(kept, fp) != kept.end() ||
          std::ranges::find(capped, fp) != capped.end()) {
        continue;
      }
      if (mine.trees.size() >= max_variants) {
        ++mine.dropped_trees;
        capped.push_back(fp);
        continue;
      }
      mine.trees.push_back(std::move(rec.trees[t]));
      mine.tree_fingerprints.push_back(fp);
    }
    for (auto& [pc, ref] : rec.reflection_targets) {
      mine.reflection_targets.emplace(pc, std::move(ref));  // first one wins
    }
  }

  into.total_instructions_observed += from.total_instructions_observed;
  into.divergences_detected += from.divergences_detected;
  // The site counter mirrors the per-method maps exactly (the collector
  // increments it only on insert), so recompute rather than guess overlap.
  into.reflection_sites = 0;
  for (const auto& [key, rec] : into.methods) {
    into.reflection_sites += rec.reflection_targets.size();
  }
}

CollectionOutput Collector::take_output() {
  if (too_deep_) throw tree_too_deep();
  while (!stack_.empty()) pop_activation();
  retraced_.clear();
  return std::move(output_);
}

}  // namespace dexlego::core
