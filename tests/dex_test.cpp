#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "src/dex/archive.h"
#include "src/dex/builder.h"
#include "src/dex/dex.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/dex/verify.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/rng.h"

namespace dexlego::dex {
namespace {

DexFile make_sample_file() {
  DexBuilder b;
  b.start_class("Lcom/test/Main;");
  b.add_static_field("PHONE", "Ljava/lang/String;", b.string_value("800-123-456"));
  b.add_instance_field("counter", "I");
  CodeItem code;
  code.registers_size = 2;
  code.ins_size = 1;
  code.insns = {0x0009};  // return-void
  code.lines = {{0, 5}};
  b.add_virtual_method("onCreate", "V", {}, code);
  b.add_native_method("bytecodeTamper", "V", {"I"});
  b.start_class("Lcom/test/Helper;", "Lcom/test/Main;");
  b.add_direct_method("util", "I", {"I", "I"}, code, kAccPublic | kAccStatic);
  return std::move(b).build();
}

TEST(DexBuilder, InternsStringsOnce) {
  DexBuilder b;
  uint32_t a = b.intern_string("x");
  uint32_t c = b.intern_string("x");
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b.intern_string("y"));
}

TEST(DexBuilder, InternsTypesProtosFieldsMethods) {
  DexBuilder b;
  uint32_t t1 = b.intern_type("Lcom/A;");
  EXPECT_EQ(t1, b.intern_type("Lcom/A;"));
  uint32_t p1 = b.intern_proto("V", {"I"});
  EXPECT_EQ(p1, b.intern_proto("V", {"I"}));
  EXPECT_NE(p1, b.intern_proto("V", {"I", "I"}));
  uint32_t f1 = b.intern_field("Lcom/A;", "I", "x");
  EXPECT_EQ(f1, b.intern_field("Lcom/A;", "I", "x"));
  uint32_t m1 = b.intern_method("Lcom/A;", "foo", "V", {});
  EXPECT_EQ(m1, b.intern_method("Lcom/A;", "foo", "V", {}));
  EXPECT_NE(m1, b.intern_method("Lcom/A;", "bar", "V", {}));
}

TEST(DexBuilder, ObjectIsTypeZero) {
  DexBuilder b;
  EXPECT_EQ(b.intern_type("Ljava/lang/Object;"), 0u);
}

TEST(DexFile, Accessors) {
  DexFile f = make_sample_file();
  const ClassDef* main = f.find_class("Lcom/test/Main;");
  ASSERT_NE(main, nullptr);
  EXPECT_EQ(f.type_descriptor(main->type_idx), "Lcom/test/Main;");
  EXPECT_EQ(main->virtual_methods.size(), 2u);  // onCreate + native tamper
  EXPECT_EQ(f.find_class("Lcom/missing;"), nullptr);

  uint32_t m = f.find_method_ref("Lcom/test/Main;", "onCreate");
  ASSERT_NE(m, kNoIndex);
  EXPECT_EQ(f.pretty_method(m), "Lcom/test/Main;->onCreate()V");
  EXPECT_EQ(f.find_method_ref("Lcom/test/Main;", "nope"), kNoIndex);
}

TEST(DexFile, PrettyFieldAndShorty) {
  DexFile f = make_sample_file();
  uint32_t util = f.find_method_ref("Lcom/test/Helper;", "util");
  ASSERT_NE(util, kNoIndex);
  EXPECT_EQ(f.proto_shorty(f.methods[util].proto), "(II)I");
  EXPECT_EQ(f.pretty_field(0), "Lcom/test/Main;->PHONE:Ljava/lang/String;");
}

TEST(DexFile, TotalCodeUnits) {
  DexFile f = make_sample_file();
  // Two concrete methods with a single return-void unit each.
  EXPECT_EQ(f.total_code_units(), 2u);
}

// The line-table rule, scanned the slow way: the last entry, in table
// order, whose pc is <= `pc`.
uint32_t scanned_line(const std::vector<LineEntry>& lines, size_t pc) {
  uint32_t line = 0;
  for (const LineEntry& e : lines) {
    if (e.pc <= pc) line = e.line;
  }
  return line;
}

TEST(LineTable, MatchesTheScanOnUnsortedTablesWithRepeatedPcs) {
  support::Rng rng(23);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<LineEntry> lines(rng.below(24));
    // Few distinct pcs, so most tables repeat some and none is sorted.
    uint16_t max_pc = static_cast<uint16_t>(1 + rng.below(40));
    for (LineEntry& e : lines) {
      e.pc = static_cast<uint16_t>(rng.below(max_pc + 1u));
      e.line = static_cast<uint32_t>(rng.below(5));  // 0 lines too
    }
    LineTable table(lines);
    for (size_t pc = 0; pc <= max_pc + 8u; ++pc) {
      ASSERT_EQ(table.at(pc), scanned_line(lines, pc)) << "pc " << pc;
    }
  }
}

TEST(LineTable, EmptyTableHasNoLines) {
  LineTable table({});
  EXPECT_EQ(table.at(0), 0u);
  EXPECT_EQ(table.at(65535), 0u);
}

TEST(DexIo, RoundTrip) {
  DexFile f = make_sample_file();
  auto bytes = write_dex(f);
  DexFile g = read_dex(bytes);
  EXPECT_EQ(g.strings, f.strings);
  EXPECT_EQ(g.types, f.types);
  EXPECT_EQ(g.fields.size(), f.fields.size());
  EXPECT_EQ(g.methods.size(), f.methods.size());
  ASSERT_EQ(g.classes.size(), f.classes.size());
  EXPECT_EQ(g.classes[0].virtual_methods.size(), f.classes[0].virtual_methods.size());
  ASSERT_TRUE(g.classes[0].static_fields[0].static_init.has_value());
  EXPECT_EQ(g.string_at(g.classes[0].static_fields[0].static_init->string_idx),
            "800-123-456");
  // Line tables survive.
  ASSERT_TRUE(g.classes[0].virtual_methods[0].code.has_value());
  ASSERT_EQ(g.classes[0].virtual_methods[0].code->lines.size(), 1u);
  EXPECT_EQ(g.classes[0].virtual_methods[0].code->lines[0].line, 5u);
}

TEST(DexIo, DetectsCorruption) {
  auto bytes = write_dex(make_sample_file());
  bytes[bytes.size() / 2] ^= 0xff;
  EXPECT_THROW(read_dex(bytes), support::ParseError);
}

TEST(DexIo, DetectsTruncation) {
  auto bytes = write_dex(make_sample_file());
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(read_dex(bytes), support::ParseError);
}

TEST(DexIo, DetectsBadMagic) {
  auto bytes = write_dex(make_sample_file());
  bytes[0] = 'X';
  EXPECT_THROW(read_dex(bytes), support::ParseError);
}

TEST(DexIo, RejectsInsExceedingRegisters) {
  // The interpreter places arguments in the trailing ins_size registers of a
  // registers_size frame, so an item claiming more ins than registers would
  // index below the frame. The parser rejects it, as the real-DEX one does.
  DexFile f = make_sample_file();
  CodeItem& code = *f.classes[0].virtual_methods[0].code;
  code.registers_size = 1;
  code.ins_size = 40;
  EXPECT_THROW(read_dex(write_dex(f)), support::ParseError);

  code.ins_size = 1;  // every argument register inside the frame: accepted
  EXPECT_NO_THROW(read_dex(write_dex(f)));
}

TEST(DexVerify, AcceptsWellFormed) {
  auto result = verify_structure(make_sample_file());
  EXPECT_TRUE(result.ok()) << result.message();
}

TEST(DexVerify, RejectsBadTypeIndex) {
  DexFile f = make_sample_file();
  f.classes[0].type_idx = 999;
  EXPECT_FALSE(verify_structure(f).ok());
}

TEST(DexVerify, RejectsDuplicateClass) {
  DexFile f = make_sample_file();
  f.classes.push_back(f.classes[0]);
  EXPECT_FALSE(verify_structure(f).ok());
}

TEST(DexVerify, RejectsMalformedDescriptor) {
  DexBuilder b;
  b.intern_type("NotADescriptor");
  EXPECT_FALSE(verify_structure(std::move(b).build()).ok());
}

TEST(DexVerify, RejectsNativeWithCode) {
  DexFile f = make_sample_file();
  CodeItem code;
  code.registers_size = 1;
  code.insns = {0x0009};
  // bytecodeTamper is the native method (index 1 in virtual methods).
  f.classes[0].virtual_methods[1].code = code;
  EXPECT_FALSE(verify_structure(f).ok());
}

TEST(DexVerify, RejectsConcreteWithoutCode) {
  DexFile f = make_sample_file();
  f.classes[0].virtual_methods[0].code.reset();
  EXPECT_FALSE(verify_structure(f).ok());
}

TEST(DexVerify, RejectsBadTryRange) {
  DexFile f = make_sample_file();
  auto& code = *f.classes[0].virtual_methods[0].code;
  code.tries.push_back({0, 99, 0});  // end beyond code
  EXPECT_FALSE(verify_structure(f).ok());
}

TEST(DexVerify, RejectsVoidParameter) {
  DexBuilder b;
  b.intern_proto("V", {"V"});
  EXPECT_FALSE(verify_structure(std::move(b).build()).ok());
}

TEST(Apk, RoundTrip) {
  Apk apk;
  Manifest m;
  m.package = "com.test";
  m.entry_class = "Lcom/test/Main;";
  m.version = "1.0";
  m.permissions = {"SEND_SMS", "READ_PHONE_STATE"};
  apk.set_manifest(m);
  apk.set_classes(write_dex(make_sample_file()));
  apk.set_entry("assets/payload.bin", {9, 9, 9});

  Apk back = Apk::read(apk.write());
  Manifest m2 = back.manifest();
  EXPECT_EQ(m2.package, "com.test");
  EXPECT_EQ(m2.entry_class, "Lcom/test/Main;");
  EXPECT_EQ(m2.permissions.size(), 2u);
  EXPECT_TRUE(back.has_entry("assets/payload.bin"));
  EXPECT_EQ(back.entry("assets/payload.bin"), (std::vector<uint8_t>{9, 9, 9}));
  DexFile f = read_dex(back.classes());
  EXPECT_NE(f.find_class("Lcom/test/Main;"), nullptr);
}

TEST(Apk, DetectsTamperedEntry) {
  Apk apk;
  apk.set_entry("x", {1, 2, 3});
  auto bytes = apk.write();
  // Flip a payload byte (entries are near the middle of the small file).
  bytes[bytes.size() - 10] ^= 1;
  EXPECT_THROW(Apk::read(bytes), support::ParseError);
}

TEST(Apk, MissingEntryThrows) {
  Apk apk;
  EXPECT_THROW(apk.entry("nope"), std::out_of_range);
  EXPECT_FALSE(apk.has_entry("nope"));
}

TEST(Apk, RemoveAndListEntries) {
  Apk apk;
  apk.set_entry("a", {1});
  apk.set_entry("b", {2});
  EXPECT_EQ(apk.entry_names().size(), 2u);
  apk.remove_entry("a");
  EXPECT_EQ(apk.entry_names(), std::vector<std::string>{"b"});
}

// --- fuzzer-found hardening regressions ------------------------------------
// Each case pins a parser fix surfaced by the structural mutator family
// (src/fuzz/mutator.cpp); the replay files under tests/data/fuzz/ carry the
// full provenance. Pre-fix these died in vector::reserve (bad_alloc) or
// reference chasing (out_of_range) instead of a clean ParseError.

void put_u32(std::vector<uint8_t>& bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

// Rewrites one header field, then refixes the size and adler32 so parsing
// reaches the deep reader (the fuzz::kHeaderRefix trick).
std::vector<uint8_t> with_hostile_u32(std::vector<uint8_t> bytes, size_t offset,
                                      uint32_t value) {
  put_u32(bytes, offset, value);
  put_u32(bytes, 12, static_cast<uint32_t>(bytes.size()));
  put_u32(bytes, 8,
          support::adler32(std::span<const uint8_t>(bytes).subspan(16)));
  return bytes;
}

TEST(DexIoHardening, PoolCountBombsAreCleanlyRejected) {
  std::vector<uint8_t> bytes = write_dex(make_sample_file());
  // The six pool counts live at offset 16 (strings, types, protos, fields,
  // methods, classes). A count promising more elements than the remaining
  // bytes could encode must be a ParseError, not a giant reserve.
  for (size_t field = 0; field < 6; ++field) {
    for (uint32_t bomb : {0xffffffffu, 0x7fffffffu, 0x00ffffffu}) {
      EXPECT_THROW(read_dex(with_hostile_u32(bytes, 16 + 4 * field, bomb)),
                   support::ParseError)
          << "count field " << field << " bomb " << bomb;
    }
  }
}

TEST(DexIoHardening, ArbitraryCountCorruptionNeverCrashes) {
  // Sweep a hostile u32 across every aligned offset: any outcome other than
  // success or a clean ParseError (bad_alloc, out_of_range, UB) fails.
  std::vector<uint8_t> bytes = write_dex(make_sample_file());
  for (size_t offset = 16; offset + 4 <= bytes.size(); offset += 4) {
    try {
      read_dex(with_hostile_u32(bytes, offset, 0xfffffff0u));
    } catch (const support::ParseError&) {
      // clean rejection
    }
  }
}

TEST(DexIoHardening, CodeItemsAreBoundedToSixteenBitPcs) {
  // The collection format and the reassembler keep pcs in 16 bits, so a
  // longer code item would alias its pcs; the LDEX loader refuses it, as
  // the real-DEX loader does.
  for (size_t units : {size_t{0xffff}, size_t{0x10000}}) {
    DexBuilder b;
    b.start_class("Lcom/test/Long;");
    CodeItem code;
    code.registers_size = 1;
    code.insns.assign(units - 1, 0x0000);  // nop
    code.insns.push_back(0x0009);          // return-void
    b.add_direct_method("run", "V", {}, code, kAccPublic | kAccStatic);
    std::vector<uint8_t> bytes = write_dex(std::move(b).build());
    if (units <= 0xffff) {
      DexFile file = read_dex(bytes);
      EXPECT_EQ(file.classes.at(0).direct_methods.at(0).code->insns.size(),
                units);
    } else {
      try {
        read_dex(bytes);
        ADD_FAILURE() << units << " units loaded";
      } catch (const support::ParseError& e) {
        EXPECT_STREQ(e.what(), "code longer than 65535 units");
      }
    }
  }
}

TEST(ApkHardening, EntryCountBombIsCleanlyRejected) {
  Apk apk;
  apk.set_entry(Apk::kClassesEntry, {1, 2, 3});
  std::vector<uint8_t> bytes = apk.write();
  put_u32(bytes, 4, 0xffffffffu);  // entry count, right after the magic
  EXPECT_THROW(Apk::read(bytes), support::ParseError);
}

TEST(DexVerifyHardening, BrokenPoolsReportInsteadOfThrowing) {
  // A type whose *string* index is out of bounds used to make the class
  // checks throw out_of_range while rendering diagnostics; now the pool
  // errors are reported alone and the class pass is skipped.
  DexFile f = make_sample_file();
  ASSERT_FALSE(f.classes.empty());
  f.types[f.classes[0].type_idx] = 0xdeadbeef;
  VerifyResult vr;
  EXPECT_NO_THROW(vr = verify_structure(f));
  EXPECT_FALSE(vr.ok());
}

TEST(DexVerifyHardening, DuplicateClassDefinitionIsAnError) {
  DexFile f = make_sample_file();
  f.classes.push_back(f.classes[0]);
  VerifyResult vr = verify_structure(f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("duplicate class definition"), std::string::npos);
}

TEST(DexVerifyHardening, DuplicateMethodDefinitionIsAnError) {
  // The fuzzer's idempotence oracle hit this as a reassembler variant-name
  // collision: two definitions of one method ref resolved ambiguously and
  // recursed at runtime. The verifier now rejects the shape outright.
  DexBuilder b;
  b.start_class("Lcom/test/Dup;");
  CodeItem code;
  code.registers_size = 1;
  code.insns = {0x0009};  // return-void
  b.add_virtual_method("m", "V", {}, code);
  b.add_virtual_method("m", "V", {}, code);
  DexFile f = std::move(b).build();
  VerifyResult vr = verify_structure(f);
  ASSERT_FALSE(vr.ok());
  EXPECT_NE(vr.message().find("duplicate method definition"),
            std::string::npos);
}

// --- real-DEX hardening (src/dex/real): hostile encodings fail closed ------
//
// Each case corrupts a VALID real-DEX image, then re-fixes file_size, SHA-1
// and adler32 so the corruption reaches the deep parser instead of dying at
// the integrity gates — the same check_count discipline the LDEX reader
// pins, ported to the uleb128/offset-table format.

namespace {

uint32_t read_u32_at(const std::vector<uint8_t>& bytes, size_t offset) {
  return static_cast<uint32_t>(bytes[offset]) |
         static_cast<uint32_t>(bytes[offset + 1]) << 8 |
         static_cast<uint32_t>(bytes[offset + 2]) << 16 |
         static_cast<uint32_t>(bytes[offset + 3]) << 24;
}

void write_u32_at(std::vector<uint8_t>& bytes, size_t offset, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

// Recomputes file_size, signature and checksum after a corruption.
void refix_real(std::vector<uint8_t>& bytes) {
  write_u32_at(bytes, 32, static_cast<uint32_t>(bytes.size()));
  std::span<const uint8_t> all(bytes);
  std::array<uint8_t, 20> sig = support::sha1(all.subspan(32));
  std::copy(sig.begin(), sig.end(), bytes.begin() + 12);
  write_u32_at(bytes, 8, support::adler32(all.subspan(12)));
}

std::vector<uint8_t> valid_real_dex() {
  return emit_real(make_sample_file());
}

}  // namespace

TEST(RealDexHardening, PoolCountOverflowFailsCleanly) {
  // One header field at a time: map_off, the string/type/proto/field/method/
  // class counts, and class_defs_off.
  for (size_t offset : {52u, 56u, 64u, 72u, 80u, 88u, 96u, 100u}) {
    std::vector<uint8_t> bytes = valid_real_dex();
    write_u32_at(bytes, offset, 0xffffffffu);
    refix_real(bytes);
    EXPECT_THROW(parse_real(bytes), support::ParseError) << "offset " << offset;
  }
}

TEST(RealDexHardening, Leb128BombInClassDataFailsCleanly) {
  std::vector<uint8_t> bytes = valid_real_dex();
  // class_def[0].class_data_off lives at class_defs_off + 24; stomp the
  // class_data stream it points at with unterminated continuation bytes.
  uint32_t class_defs_off = read_u32_at(bytes, 0x64);
  uint32_t class_data_off = read_u32_at(bytes, class_defs_off + 24);
  ASSERT_NE(class_data_off, 0u);
  ASSERT_LT(class_data_off + 6, bytes.size());
  for (size_t i = 0; i < 6; ++i) bytes[class_data_off + i] = 0x80;
  refix_real(bytes);
  EXPECT_THROW(parse_real(bytes), support::ParseError);
}

TEST(RealDexHardening, AliasedStringDataOffsetsFailCleanly) {
  std::vector<uint8_t> bytes = valid_real_dex();
  uint32_t string_ids_off = read_u32_at(bytes, 0x3c);
  ASSERT_GE(read_u32_at(bytes, 0x38), 2u);  // need two strings to alias
  // string_id[1] -> the same string_data as string_id[0]: the offsets are no
  // longer strictly increasing, which the parser treats as aliasing.
  write_u32_at(bytes, string_ids_off + 4, read_u32_at(bytes, string_ids_off));
  refix_real(bytes);
  EXPECT_THROW(parse_real(bytes), support::ParseError);
}

TEST(RealDexHardening, TruncationAtEveryHeaderBoundaryFailsCleanly) {
  std::vector<uint8_t> bytes = valid_real_dex();
  for (size_t keep : {size_t{0}, size_t{8}, size_t{0x6f}, size_t{0x70},
                      bytes.size() / 2}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_THROW(parse_real(cut), support::ParseError) << "keep " << keep;
    if (cut.size() >= 0x70) {
      // Even with consistent integrity fields the sections now dangle.
      refix_real(cut);
      EXPECT_THROW(parse_real(cut), support::ParseError) << "refixed " << keep;
    }
  }
}

TEST(RealDexHardening, ChecksumAndSignatureGatesHold) {
  std::vector<uint8_t> bytes = valid_real_dex();
  // Body flip without refix: the adler32 gate trips first.
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() - 1] ^= 0x5a;
  EXPECT_THROW(parse_real(flipped), support::ParseError);
  // Consistent checksum but stale signature: the SHA-1 gate trips.
  std::vector<uint8_t> resigned = flipped;
  std::span<const uint8_t> all(resigned);
  write_u32_at(resigned, 8, support::adler32(all.subspan(12)));
  EXPECT_THROW(parse_real(resigned), support::ParseError);
  // Sanity: the uncorrupted image still parses — the gates, not the
  // payload, are what rejected above.
  EXPECT_NO_THROW(parse_real(valid_real_dex()));
}

TEST(RealDexHardening, WrongMagicIsNotRealDex) {
  std::vector<uint8_t> bytes = valid_real_dex();
  bytes[3] = 'X';
  EXPECT_FALSE(is_real_dex(bytes));
  EXPECT_THROW(load_any(bytes), support::ParseError);
}

}  // namespace
}  // namespace dexlego::dex
