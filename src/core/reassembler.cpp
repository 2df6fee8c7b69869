#include "src/core/reassembler.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>

#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/dex/builder.h"

namespace dexlego::core {

using bc::Insn;
using bc::Op;

namespace {

std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

// One method-body emitter. Works on a flat item list: instructions carried
// over from the tree (with their owning node for target resolution), guards,
// synthetic gotos, the landing pad and switch payloads.
class TreeEmitter {
 public:
  TreeEmitter(dex::DexBuilder& builder, const MethodRecord& rec,
              const TreeNode& root, const ReassembleOptions& options,
              ReassembleStats& stats, size_t guard_field_base)
      : builder_(builder),
        rec_(rec),
        root_(root),
        options_(options),
        stats_(stats),
        guard_field_base_(guard_field_base) {}

  dex::CodeItem emit();
  size_t guards_used() const { return guards_used_; }

 private:
  struct Item {
    enum class Kind { kInsn, kGuard, kGoto, kPad, kPayload } kind;
    const TreeNode* node = nullptr;  // kInsn: owning node
    size_t il_index = 0;             // kInsn
    uint32_t guard_field = 0;        // kGuard: field pool index (new file)
    size_t guard_target = 0;         // kGuard: item index of child block start
    // kGoto: original-pc target searched from `node`
    uint16_t goto_pc = 0;
    // kPayload: owning switch item index
    size_t switch_item = 0;
    size_t offset = 0;  // filled by layout
    size_t width = 0;
  };

  void build_node(const TreeNode& node);
  size_t item_width(const Item& item) const;
  // Resolves an original pc starting from `node` (self, ancestors, then
  // descendants). Returns the item index or pad_item_.
  size_t resolve(const TreeNode* node, uint16_t pc);
  size_t find_in(const TreeNode* node, uint16_t pc) const;
  uint8_t guard_reg() const { return static_cast<uint8_t>(frame_registers_ - 1); }
  uint32_t new_pool_index(const SymRef& ref);
  void emit_insn_units(const Item& item, std::vector<uint16_t>& out);

  dex::DexBuilder& builder_;
  const MethodRecord& rec_;
  const TreeNode& root_;
  const ReassembleOptions& options_;
  ReassembleStats& stats_;
  size_t guard_field_base_;
  size_t guards_used_ = 0;

  std::vector<Item> items_;
  // The item of each carried-over instruction by owning node and original
  // pc, sorted once build_node is done.
  struct InsnKey {
    const TreeNode* node;
    uint16_t pc;
    size_t item;
  };
  static bool key_less(const InsnKey& a, const InsnKey& b) {
    if (a.node != b.node) return std::less<const TreeNode*>{}(a.node, b.node);
    return a.pc != b.pc ? a.pc < b.pc : a.item < b.item;
  }
  std::vector<InsnKey> insn_items_;
  std::map<const TreeNode*, size_t> child_block_start_;
  std::vector<std::pair<const TreeNode*, size_t>> child_guard_items_;
  std::map<const ILEntry*, size_t> payload_item_;
  size_t pad_item_ = SIZE_MAX;
  bool pad_referenced_ = false;
  uint16_t frame_registers_ = 0;
};

void TreeEmitter::build_node(const TreeNode& node) {
  for (size_t i = 0; i < node.il.size(); ++i) {
    const ILEntry& entry = node.il[i];
    // Divergence guards for children forking at this pc: the guard branches
    // to the child block (emitted after the main stream), the fallthrough
    // executes this node's version (paper Code 4 structure).
    for (const auto& child : node.children) {
      if (child->sm_start == entry.pc && !child->il.empty()) {
        Item guard;
        guard.kind = Item::Kind::kGuard;
        guard.node = &node;
        std::string field_name =
            sanitize(rec_.key.class_descriptor + "_" + rec_.key.name) + "_" +
            std::to_string(guard_field_base_ + guards_used_);
        guard.guard_field =
            builder_.intern_field(kModificationClass, "I", field_name);
        guard.guard_target = SIZE_MAX;  // patched once the child block exists
        child_guard_items_.emplace_back(child.get(), items_.size());
        items_.push_back(guard);
        ++guards_used_;
        ++stats_.guards;
      }
    }

    Item item;
    item.kind = Item::Kind::kInsn;
    item.node = &node;
    item.il_index = i;
    insn_items_.push_back({&node, entry.pc, items_.size()});
    items_.push_back(item);

    // Explicit fallthrough: if the next recorded instruction of this node is
    // not the natural successor, synthesize a goto to it.
    Insn insn = bc::decode_at(entry.units, 0);
    if (bc::can_continue(insn.op)) {
      uint16_t fall_pc = static_cast<uint16_t>(entry.pc + insn.width);
      bool natural = (i + 1 < node.il.size()) && node.il[i + 1].pc == fall_pc;
      if (!natural) {
        Item go;
        go.kind = Item::Kind::kGoto;
        go.node = &node;
        go.goto_pc = fall_pc;
        items_.push_back(go);
      }
    }
  }

  // Child blocks follow the node's main stream.
  for (const auto& child : node.children) {
    if (child->il.empty()) continue;
    child_block_start_[child.get()] = items_.size();
    build_node(*child);
  }
}

size_t TreeEmitter::item_width(const Item& item) const {
  switch (item.kind) {
    case Item::Kind::kInsn:
      return item.node->il[item.il_index].units.size();
    case Item::Kind::kGuard:
      return 4;  // sget (2) + if-eqz (2)
    case Item::Kind::kGoto:
      return 2;
    case Item::Kind::kPad:
      // return-void (1), or const (1-2 units) + return (1).
      return rec_.return_type == "V" ? 1 : 3;
    case Item::Kind::kPayload: {
      const Item& sw = items_[item.switch_item];
      const ILEntry& entry = sw.node->il[sw.il_index];
      return 4 + (entry.switch_payload ? entry.switch_payload->target_pcs.size()
                                       : 0);
    }
  }
  return 0;
}

size_t TreeEmitter::find_in(const TreeNode* node, uint16_t pc) const {
  // A node that recorded one pc twice resolves it to its last item.
  auto it = std::ranges::upper_bound(insn_items_, InsnKey{node, pc, SIZE_MAX},
                                     key_less);
  if (it == insn_items_.begin()) return SIZE_MAX;
  --it;
  return it->node == node && it->pc == pc ? it->item : SIZE_MAX;
}

size_t TreeEmitter::resolve(const TreeNode* node, uint16_t pc) {
  // Own IL, then ancestors (convergence), then descendants (code first
  // executed while a divergence layer was active).
  for (const TreeNode* n = node; n != nullptr; n = n->parent) {
    size_t found = find_in(n, pc);
    if (found != SIZE_MAX) return found;
  }
  std::vector<const TreeNode*> queue;
  for (const auto& c : node->children) queue.push_back(c.get());
  while (!queue.empty()) {
    const TreeNode* n = queue.back();
    queue.pop_back();
    size_t found = find_in(n, pc);
    if (found != SIZE_MAX) return found;
    for (const auto& c : n->children) queue.push_back(c.get());
  }
  pad_referenced_ = true;
  ++stats_.pad_edges;
  return pad_item_;
}

uint32_t TreeEmitter::new_pool_index(const SymRef& ref) {
  switch (ref.kind) {
    case bc::RefKind::kString:
      return builder_.intern_string(ref.parts.at(0));
    case bc::RefKind::kType:
      return builder_.intern_type(ref.parts.at(0));
    case bc::RefKind::kField:
      return builder_.intern_field(ref.parts.at(0), ref.parts.at(1),
                                   ref.parts.at(2));
    case bc::RefKind::kMethod: {
      std::vector<std::string> params;
      for (size_t i = 3; i < ref.parts.size(); ++i) {
        if (!ref.parts[i].empty() && ref.parts[i][0] == '#') continue;  // marker
        params.push_back(ref.parts[i]);
      }
      return builder_.intern_method(ref.parts.at(0), ref.parts.at(1),
                                    ref.parts.at(2), params);
    }
    case bc::RefKind::kNone:
      return 0;
  }
  return 0;
}

void TreeEmitter::emit_insn_units(const Item& item, std::vector<uint16_t>& out) {
  const ILEntry& entry = item.node->il[item.il_index];
  Insn insn = bc::decode_at(entry.units, 0);

  // Reflective call sites recorded at this pc become direct calls.
  if (options_.replace_reflection && bc::is_invoke(insn.op)) {
    auto rit = rec_.reflection_targets.find(entry.pc);
    if (rit != rec_.reflection_targets.end() && insn.a >= 1) {
      const SymRef& target = rit->second;
      bool is_static =
          !target.parts.empty() && target.parts.back() == "#static";
      Insn direct;
      direct.op = is_static ? Op::kInvokeStatic : Op::kInvokeVirtual;
      // Method.invoke(methodObj, receiver, args...): drop the Method object;
      // static targets also drop the receiver.
      uint8_t skip = is_static ? 2 : 1;
      uint8_t argc = insn.a > skip ? static_cast<uint8_t>(insn.a - skip) : 0;
      direct.a = argc;
      for (uint8_t i = 0; i < argc && i + skip < 4; ++i) {
        direct.args[i] = insn.args[i + skip];
      }
      uint32_t idx = new_pool_index(target);
      direct.idx = static_cast<uint16_t>(idx);
      // Same 4-unit footprint as the original invoke.
      bc::encode_to(direct, out);
      ++stats_.reflection_replaced;
      return;
    }
  }

  // Copy the recorded units into the output, then patch them there.
  size_t base = out.size();
  out.insert(out.end(), entry.units.begin(), entry.units.end());
  auto unit = [&](size_t i) -> uint16_t& {
    if (i >= entry.units.size()) {
      throw std::out_of_range("reassembled operand past its instruction");
    }
    return out[base + i];
  };
  // Re-intern the pool operand.
  if (entry.ref) {
    uint32_t idx = new_pool_index(*entry.ref);
    if (idx > 0xffff) throw std::runtime_error("pool overflow in reassembly");
    size_t idx_unit;
    switch (insn.op) {
      case Op::kIget:
      case Op::kIput:
      case Op::kNewArray:
      case Op::kInstanceOf:
        idx_unit = 2;
        break;
      default:
        idx_unit = 1;  // const-string, sget/sput, new-instance, invokes
        break;
    }
    unit(idx_unit) = static_cast<uint16_t>(idx);
  }

  // Retarget branches to the new layout.
  auto rel_to = [&](size_t target_item) {
    ptrdiff_t delta = static_cast<ptrdiff_t>(items_[target_item].offset) -
                      static_cast<ptrdiff_t>(item.offset);
    if (delta < INT16_MIN || delta > INT16_MAX) {
      throw std::runtime_error("reassembled branch out of rel16 range");
    }
    return static_cast<uint16_t>(static_cast<int16_t>(delta));
  };
  if (insn.op == Op::kGoto) {
    size_t t = resolve(item.node, static_cast<uint16_t>(entry.pc + insn.off));
    unit(1) = rel_to(t);
  } else if (bc::is_conditional_branch(insn.op)) {
    size_t t = resolve(item.node, static_cast<uint16_t>(entry.pc + insn.off));
    unit(bc::is_two_reg_if(insn.op) ? 2 : 1) = rel_to(t);
  } else if (insn.op == Op::kPackedSwitch) {
    unit(1) = rel_to(payload_item_.at(&entry));
  }
}

dex::CodeItem TreeEmitter::emit() {
  build_node(root_);
  std::ranges::sort(insn_items_, key_less);

  // Patch guard targets now that child blocks are placed.
  for (const auto& [child, guard_index] : child_guard_items_) {
    auto it = child_block_start_.find(child);
    items_[guard_index].guard_target =
        it != child_block_start_.end() ? it->second : SIZE_MAX;
  }

  // Landing pad for never-executed edges, then switch payloads.
  pad_item_ = items_.size();
  {
    Item pad;
    pad.kind = Item::Kind::kPad;
    items_.push_back(pad);
  }
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].kind != Item::Kind::kInsn) continue;
    const ILEntry& entry = items_[i].node->il[items_[i].il_index];
    if (entry.switch_payload) {
      Item payload;
      payload.kind = Item::Kind::kPayload;
      payload.switch_item = i;
      payload_item_[&entry] = items_.size();
      items_.push_back(payload);
    }
  }

  // Frame: one extra register for guards when any exist (also used by the
  // pad's constant for value-returning methods).
  bool needs_scratch = guards_used_ > 0 || rec_.return_type != "V";
  frame_registers_ = static_cast<uint16_t>(
      std::max<uint16_t>(rec_.registers_size, rec_.ins_size) +
      (needs_scratch ? 1 : 0));
  if (frame_registers_ == 0) frame_registers_ = 1;
  if (frame_registers_ > 255) throw std::runtime_error("frame overflow");

  // Growing the frame moves the incoming arguments up (the interpreter banks
  // ins at the top of the frame), while the carried-over code still addresses
  // them at their original registers. A prologue of moves puts every argument
  // back where the original code expects it. Latent until the fuzzer made
  // control flow depend on an argument register (replay file
  // tests/data/fuzz/bytecode-arg-shift-fixed.lfz).
  std::vector<uint16_t> prologue;
  {
    uint16_t old_base = static_cast<uint16_t>(
        std::max<uint16_t>(rec_.registers_size, rec_.ins_size) - rec_.ins_size);
    uint16_t new_base =
        static_cast<uint16_t>(frame_registers_ - rec_.ins_size);
    // Increasing order is overlap-safe: each move reads above every register
    // written so far.
    for (uint16_t i = 0; new_base != old_base && i < rec_.ins_size; ++i) {
      Insn mv{.op = Op::kMove, .a = static_cast<uint8_t>(old_base + i),
              .b = static_cast<uint8_t>(new_base + i)};
      bc::encode_to(mv, prologue);
    }
  }

  // Layout pass. Offsets start past the prologue; every control transfer is
  // a difference of item offsets, so the uniform shift cancels.
  size_t offset = prologue.size();
  for (Item& item : items_) {
    item.offset = offset;
    item.width = item_width(item);
    offset += item.width;
  }

  // Emission pass.
  std::vector<uint16_t> code;
  code.reserve(offset);
  code.insert(code.end(), prologue.begin(), prologue.end());
  for (const Item& item : items_) {
    switch (item.kind) {
      case Item::Kind::kInsn:
        emit_insn_units(item, code);
        break;
      case Item::Kind::kGuard: {
        Insn sget{.op = Op::kSget, .a = guard_reg(),
                  .idx = static_cast<uint16_t>(item.guard_field)};
        bc::encode_to(sget, code);
        size_t target =
            item.guard_target == SIZE_MAX ? pad_item_ : item.guard_target;
        ptrdiff_t delta = static_cast<ptrdiff_t>(items_[target].offset) -
                          static_cast<ptrdiff_t>(item.offset + 2);
        Insn ifz{.op = Op::kIfEqz, .a = guard_reg(),
                 .off = static_cast<int32_t>(delta)};
        bc::encode_to(ifz, code);
        break;
      }
      case Item::Kind::kGoto: {
        size_t t = resolve(item.node, item.goto_pc);
        ptrdiff_t delta = static_cast<ptrdiff_t>(items_[t].offset) -
                          static_cast<ptrdiff_t>(item.offset);
        Insn go{.op = Op::kGoto, .off = static_cast<int32_t>(delta)};
        bc::encode_to(go, code);
        break;
      }
      case Item::Kind::kPad: {
        if (rec_.return_type == "V") {
          bc::encode_to({.op = Op::kReturnVoid}, code);
        } else if (rec_.return_type == "I" || rec_.return_type == "J" ||
                   rec_.return_type == "Z") {
          bc::encode_to({.op = Op::kConst16, .a = guard_reg(), .lit = 0}, code);
          bc::encode_to({.op = Op::kReturn, .a = guard_reg()}, code);
        } else {
          bc::encode_to({.op = Op::kConstNull, .a = guard_reg()}, code);
          // const-null is 1 unit; keep the 3-unit width with a nop.
          bc::encode_to({.op = Op::kNop}, code);
          bc::encode_to({.op = Op::kReturn, .a = guard_reg()}, code);
        }
        break;
      }
      case Item::Kind::kPayload: {
        const Item& sw = items_[item.switch_item];
        const ILEntry& entry = sw.node->il[sw.il_index];
        code.push_back(static_cast<uint16_t>(Op::kPayload));
        code.push_back(
            static_cast<uint16_t>(entry.switch_payload->target_pcs.size()));
        code.push_back(static_cast<uint16_t>(entry.switch_payload->first_key &
                                             0xffff));
        code.push_back(static_cast<uint16_t>(
            (entry.switch_payload->first_key >> 16) & 0xffff));
        for (uint16_t orig_target : entry.switch_payload->target_pcs) {
          size_t t = resolve(sw.node, orig_target);
          ptrdiff_t delta = static_cast<ptrdiff_t>(items_[t].offset) -
                            static_cast<ptrdiff_t>(sw.offset);
          code.push_back(static_cast<uint16_t>(static_cast<int16_t>(delta)));
        }
        break;
      }
    }
  }

  dex::CodeItem out;
  out.registers_size = frame_registers_;
  out.ins_size = rec_.ins_size;
  out.insns = std::move(code);

  if (options_.keep_debug_info) {
    // Lines: map each emitted root-context instruction to its original line.
    const dex::LineTable line_of(rec_.lines);
    uint32_t last = 0;
    for (const Item& item : items_) {
      if (item.kind != Item::Kind::kInsn) continue;
      uint32_t line = line_of.at(item.node->il[item.il_index].pc);
      if (line != 0 && line != last) {
        out.lines.push_back({static_cast<uint16_t>(item.offset), line});
        last = line;
      }
    }
    // Tries: cover the emitted span of each original range when its handler
    // was executed; never-executed handlers vanish with the dead code.
    for (const dex::TryItem& t : rec_.tries) {
      size_t handler = find_in(&root_, t.handler_pc);
      if (handler == SIZE_MAX) continue;
      size_t lo = SIZE_MAX, hi = 0;
      for (const Item& item : items_) {
        if (item.kind != Item::Kind::kInsn || item.node != &root_) continue;
        uint16_t pc = item.node->il[item.il_index].pc;
        if (pc >= t.start_pc && pc < t.end_pc) {
          lo = std::min(lo, item.offset);
          hi = std::max(hi, item.offset + item.width);
        }
      }
      if (lo < hi && lo != SIZE_MAX) {
        dex::TryItem nt;
        nt.start_pc = static_cast<uint16_t>(lo);
        nt.end_pc = static_cast<uint16_t>(hi);
        nt.handler_pc = static_cast<uint16_t>(items_[handler].offset);
        out.tries.push_back(nt);
      }
    }
  }
  stats_.output_code_units += out.insns.size();
  return out;
}

}  // namespace

// --- whole-file reassembly ---

namespace {

// Builds the guarded dispatcher body used when a method has several unique
// instruction arrays ("Merging Instruction Arrays", paper IV-B).
dex::CodeItem build_dispatcher(dex::DexBuilder& builder, const MethodRecord& rec,
                               const std::vector<uint32_t>& variant_refs,
                               const std::vector<uint32_t>& selector_fields) {
  uint16_t ins = rec.ins_size;
  uint16_t registers = static_cast<uint16_t>(ins + 1);  // v0 = scratch
  std::vector<uint16_t> code;
  std::vector<uint8_t> arg_regs;
  for (uint16_t i = 0; i < ins; ++i) {
    arg_regs.push_back(static_cast<uint8_t>(registers - ins + i));
  }
  bool is_static = (rec.access_flags & dex::kAccStatic) != 0;
  Op invoke_op = is_static ? Op::kInvokeStatic : Op::kInvokeVirtual;

  // Per-variant call block width: invoke (4) + [move-result (1)] + return (1).
  size_t block_width = 4 + (rec.return_type == "V" ? 1 : 2);
  size_t header_width = 4 * (variant_refs.size() - 1) + 2;  // guards + goto

  size_t k = 0;
  for (; k + 1 < variant_refs.size(); ++k) {
    Insn sget{.op = Op::kSget, .a = 0,
              .idx = static_cast<uint16_t>(selector_fields[k])};
    bc::encode_to(sget, code);
    size_t here = code.size();  // offset of the if-eqz
    ptrdiff_t target = static_cast<ptrdiff_t>(header_width + k * block_width);
    Insn ifz{.op = Op::kIfEqz, .a = 0,
             .off = static_cast<int32_t>(target - static_cast<ptrdiff_t>(here))};
    bc::encode_to(ifz, code);
  }
  {
    size_t here = code.size();
    ptrdiff_t target = static_cast<ptrdiff_t>(header_width + k * block_width);
    Insn go{.op = Op::kGoto,
            .off = static_cast<int32_t>(target - static_cast<ptrdiff_t>(here))};
    bc::encode_to(go, code);
  }
  for (size_t v = 0; v < variant_refs.size(); ++v) {
    Insn invoke{.op = invoke_op, .a = static_cast<uint8_t>(arg_regs.size()),
                .idx = static_cast<uint16_t>(variant_refs[v])};
    for (size_t i = 0; i < arg_regs.size(); ++i) invoke.args[i] = arg_regs[i];
    bc::encode_to(invoke, code);
    if (rec.return_type == "V") {
      bc::encode_to({.op = Op::kReturnVoid}, code);
    } else {
      bc::encode_to({.op = Op::kMoveResult, .a = 0}, code);
      bc::encode_to({.op = Op::kReturn, .a = 0}, code);
    }
  }
  (void)builder;
  dex::CodeItem item;
  item.registers_size = registers;
  item.ins_size = ins;
  item.insns = std::move(code);
  return item;
}

dex::EncodedValue encode_static_value(dex::DexBuilder& builder,
                                      const CollectedValue& v) {
  switch (v.kind) {
    case CollectedValue::Kind::kInt:
      return dex::DexBuilder::int_value(v.i);
    case CollectedValue::Kind::kString:
      return builder.string_value(v.s);
    case CollectedValue::Kind::kNull:
      return dex::DexBuilder::null_value();
  }
  return dex::DexBuilder::null_value();
}

}  // namespace

ReassembleResult reassemble(const CollectionOutput& input,
                            const ReassembleOptions& options) {
  ReassembleResult result;
  dex::DexBuilder builder;
  ReassembleStats& stats = result.stats;

  // Group methods by declaring class; include classes that somehow have
  // method records but no class record (defensive completeness).
  std::map<std::string, std::vector<const MethodRecord*>> by_class;
  for (const auto& [key, rec] : input.methods) {
    by_class[key.class_descriptor].push_back(&rec);
  }
  std::set<std::string> class_descriptors;
  for (const CollectedClass& c : input.classes) class_descriptors.insert(c.descriptor);

  size_t guard_counter = 0;

  auto emit_class = [&](const CollectedClass* cls, const std::string& descriptor) {
    std::string super =
        (cls != nullptr && !cls->super_descriptor.empty()) ? cls->super_descriptor
                                                           : "Ljava/lang/Object;";
    builder.start_class(descriptor, super,
                        cls != nullptr ? cls->access_flags : dex::kAccPublic);
    ++stats.classes;
    if (cls != nullptr) {
      for (const CollectedField& f : cls->instance_fields) {
        builder.add_instance_field(f.name, f.type_descriptor, f.access_flags);
      }
      for (const CollectedField& f : cls->static_fields) {
        builder.add_static_field(f.name, f.type_descriptor,
                                 encode_static_value(builder, f.static_value),
                                 f.access_flags);
      }
    }

    auto mit = by_class.find(descriptor);
    if (mit == by_class.end()) return;
    // Synthetic variant names must never collide with a method already in
    // the input: a once-revealed app carries the previous round's name$vN
    // variants, and re-defining one made invoke resolution ambiguous (the
    // first definition — a traced dispatcher body invoking its own name —
    // recursed to StackOverflowError; fuzzer finding, replay file
    // tests/data/fuzz/bytecode-variant-collision-fixed.lfz).
    std::set<std::string> taken_names;
    for (const MethodRecord* r : mit->second) taken_names.insert(r->key.name);
    for (const MethodRecord* rec : mit->second) {
      ++stats.methods;
      bool is_direct = (rec->access_flags &
                        (dex::kAccStatic | dex::kAccPrivate | dex::kAccConstructor)) != 0 ||
                       rec->key.name == "<init>" || rec->key.name == "<clinit>";
      if (rec->is_native) {
        builder.add_native_method(rec->key.name, rec->return_type,
                                  rec->param_types, rec->access_flags);
        continue;
      }
      if (rec->trees.empty()) {
        // Entered but nothing recorded (aborted immediately): emit a stub so
        // references still resolve.
        bc::MethodAssembler as(std::max<uint16_t>(rec->registers_size, 1),
                               rec->ins_size);
        if (rec->return_type == "V") {
          as.return_void();
        } else if (rec->return_type == "I" || rec->return_type == "J" ||
                   rec->return_type == "Z") {
          as.const16(0, 0);
          as.return_value(0);
        } else {
          as.const_null(0);
          as.return_value(0);
        }
        if (is_direct) {
          builder.add_direct_method(rec->key.name, rec->return_type,
                                    rec->param_types, as.finish(),
                                    rec->access_flags);
        } else {
          builder.add_virtual_method(rec->key.name, rec->return_type,
                                     rec->param_types, as.finish(),
                                     rec->access_flags);
        }
        continue;
      }

      // Emit one body per unique tree.
      std::vector<dex::CodeItem> bodies;
      for (const auto& tree : rec->trees) {
        TreeEmitter emitter(builder, *rec, *tree, options, stats, guard_counter);
        bodies.push_back(emitter.emit());
        guard_counter += emitter.guards_used();
      }
      // Track Modification fields created by the emitters (they intern them;
      // collect for the instrument class definition below).
      if (bodies.size() == 1) {
        if (is_direct) {
          builder.add_direct_method(rec->key.name, rec->return_type,
                                    rec->param_types, std::move(bodies[0]),
                                    rec->access_flags);
        } else {
          builder.add_virtual_method(rec->key.name, rec->return_type,
                                     rec->param_types, std::move(bodies[0]),
                                     rec->access_flags);
        }
        continue;
      }

      // Method variants + guarded dispatcher (paper IV-B, merging arrays).
      std::vector<uint32_t> variant_refs;
      std::vector<uint32_t> selector_fields;
      for (size_t v = 0; v < bodies.size(); ++v) {
        std::string vname;
        for (size_t ordinal = v;; ++ordinal) {
          vname = rec->key.name + "$v" + std::to_string(ordinal);
          if (taken_names.insert(vname).second) break;
        }
        uint32_t mref;
        uint32_t vflags = (rec->access_flags & ~dex::kAccConstructor) |
                          dex::kAccSynthetic;
        if (is_direct) {
          mref = builder.add_direct_method(vname, rec->return_type,
                                           rec->param_types, std::move(bodies[v]),
                                           vflags);
        } else {
          mref = builder.add_virtual_method(vname, rec->return_type,
                                            rec->param_types, std::move(bodies[v]),
                                            vflags);
        }
        variant_refs.push_back(mref);
        ++stats.variants;
        if (v + 1 < bodies.size()) {
          std::string fname =
              sanitize(rec->key.class_descriptor + "_" + rec->key.name) +
              "_variant_" + std::to_string(v);
          selector_fields.push_back(
              builder.intern_field(kModificationClass, "I", fname));
        }
      }
      dex::CodeItem dispatcher =
          build_dispatcher(builder, *rec, variant_refs, selector_fields);
      if (is_direct) {
        builder.add_direct_method(rec->key.name, rec->return_type,
                                  rec->param_types, std::move(dispatcher),
                                  rec->access_flags);
      } else {
        builder.add_virtual_method(rec->key.name, rec->return_type,
                                   rec->param_types, std::move(dispatcher),
                                   rec->access_flags);
      }
    }
  };

  // The reassembler owns the instrument class: a once-revealed input already
  // carries Ldexlego/Modification;, and emitting the collected copy *and*
  // the synthesized one below produced a duplicate class definition on
  // re-reveal (found by the fuzzer's idempotence oracle, replay file
  // tests/data/fuzz/bytecode-idempotence-fixed.lfz). Hold the collected copy
  // back and fold its fields into the synthesized definition instead.
  const CollectedClass* collected_instrument = nullptr;
  for (const CollectedClass& cls : input.classes) {
    if (cls.descriptor == kModificationClass) {
      collected_instrument = &cls;
      continue;
    }
    emit_class(&cls, cls.descriptor);
  }
  for (const auto& [descriptor, _] : by_class) {
    if (descriptor == kModificationClass) continue;
    if (!class_descriptors.contains(descriptor)) emit_class(nullptr, descriptor);
  }

  // The instrument class: every Ldexlego/Modification; field interned by the
  // emitters becomes a static int field initialized to 0 (value is irrelevant
  // to static analysis; reachability of both branches is what matters).
  // Collected fields come first so the definition is stable across repeated
  // reveals even when this round's emitters interned nothing new.
  {
    std::vector<std::string> field_names;
    std::set<std::string> seen_fields;
    if (collected_instrument != nullptr) {
      for (const CollectedField& f : collected_instrument->static_fields) {
        if (seen_fields.insert(f.name).second) field_names.push_back(f.name);
      }
    }
    const dex::DexFile& partial = builder.file();
    for (const dex::FieldRef& f : partial.fields) {
      if (partial.type_descriptor(f.class_type) == kModificationClass) {
        std::string name = partial.string_at(f.name);
        if (seen_fields.insert(name).second) field_names.push_back(name);
      }
    }
    if (!field_names.empty()) {
      builder.start_class(kModificationClass);
      ++stats.classes;
      for (const std::string& name : field_names) {
        builder.add_static_field(name, "I", dex::DexBuilder::int_value(0));
      }
    }
  }

  result.file = std::move(builder).build();
  return result;
}

}  // namespace dexlego::core
