// Property-style checks for src/support beyond the example-based seed suite:
// randomized ByteWriter/ByteReader round trips, hash stability against
// pinned vectors (a silent change to adler32/fnv1a would corrupt every LDEX
// checksum and collection-tree fingerprint on disk), and RNG determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "src/bytecode/assembler.h"
#include "src/bytecode/insn.h"
#include "src/bytecode/verify_code.h"
#include "src/dex/builder.h"
#include "src/dex/io.h"
#include "src/dex/real/leb128.h"
#include "src/dex/verify.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/mutator.h"
#include "src/runtime/runtime.h"
#include "src/support/bytes.h"
#include "src/support/hash.h"
#include "src/support/rng.h"

namespace dexlego::support {
namespace {

// One randomly typed scalar written then read back.
using Token = std::variant<uint8_t, uint16_t, uint32_t, uint64_t, int32_t,
                           int64_t, std::string, std::vector<uint8_t>>;

Token random_token(Rng& rng) {
  switch (rng.below(8)) {
    case 0: return static_cast<uint8_t>(rng.next());
    case 1: return static_cast<uint16_t>(rng.next());
    case 2: return static_cast<uint32_t>(rng.next());
    case 3: return rng.next();
    case 4: return static_cast<int32_t>(rng.next());
    case 5: return static_cast<int64_t>(rng.next());
    case 6: {
      std::string s;
      for (uint64_t i = 0, n = rng.below(40); i < n; ++i) {
        s.push_back(static_cast<char>(rng.range(0, 255)));
      }
      return s;
    }
    default: {
      std::vector<uint8_t> b;
      for (uint64_t i = 0, n = rng.below(64); i < n; ++i) {
        b.push_back(static_cast<uint8_t>(rng.next()));
      }
      return b;
    }
  }
}

class BytesRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytesRoundTripProperty, RandomTokenSequencesRoundTrip) {
  Rng rng(GetParam());
  std::vector<Token> tokens;
  ByteWriter w;
  for (uint64_t i = 0, n = rng.below(200) + 1; i < n; ++i) {
    Token t = random_token(rng);
    std::visit(
        [&w](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, uint8_t>) w.u8(v);
          else if constexpr (std::is_same_v<T, uint16_t>) w.u16(v);
          else if constexpr (std::is_same_v<T, uint32_t>) w.u32(v);
          else if constexpr (std::is_same_v<T, uint64_t>) w.u64(v);
          else if constexpr (std::is_same_v<T, int32_t>) w.i32(v);
          else if constexpr (std::is_same_v<T, int64_t>) w.i64(v);
          else if constexpr (std::is_same_v<T, std::string>) w.str(v);
          else w.bytes(v);
        },
        t);
    tokens.push_back(std::move(t));
  }

  ByteReader r(w.data());
  for (const Token& t : tokens) {
    std::visit(
        [&r](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, uint8_t>) EXPECT_EQ(r.u8(), v);
          else if constexpr (std::is_same_v<T, uint16_t>) EXPECT_EQ(r.u16(), v);
          else if constexpr (std::is_same_v<T, uint32_t>) EXPECT_EQ(r.u32(), v);
          else if constexpr (std::is_same_v<T, uint64_t>) EXPECT_EQ(r.u64(), v);
          else if constexpr (std::is_same_v<T, int32_t>) EXPECT_EQ(r.i32(), v);
          else if constexpr (std::is_same_v<T, int64_t>) EXPECT_EQ(r.i64(), v);
          else if constexpr (std::is_same_v<T, std::string>) {
            EXPECT_EQ(r.str(), v);
          } else {
            // bytes() is raw: the length is the caller's contract.
            EXPECT_EQ(r.bytes(v.size()), v);
          }
        },
        t);
  }
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytesRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 33));

// Alignment padding is zero-filled, position-correct and skippable.
TEST(BytesProperty, AlignPadsWithZeros) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    ByteWriter w;
    size_t n = rng.below(37);
    for (size_t i = 0; i < n; ++i) w.u8(0xff);
    size_t alignment = size_t{1} << rng.below(4);  // 1,2,4,8
    w.align(alignment);
    EXPECT_EQ(w.size() % alignment, 0u);
    EXPECT_LT(w.size() - n, alignment);
    for (size_t i = n; i < w.size(); ++i) EXPECT_EQ(w.data()[i], 0u);
  }
}

// patch_u32 rewrites exactly four bytes and leaves the rest untouched.
TEST(BytesProperty, PatchIsLocal) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    ByteWriter w;
    size_t n = rng.below(64) + 8;
    for (size_t i = 0; i < n; ++i) w.u8(static_cast<uint8_t>(rng.next()));
    std::vector<uint8_t> before = w.data();
    size_t at = rng.below(n - 3);
    uint32_t v = static_cast<uint32_t>(rng.next());
    w.patch_u32(at, v);
    ByteReader r(w.data());
    r.seek(at);
    EXPECT_EQ(r.u32(), v);
    for (size_t i = 0; i < n; ++i) {
      if (i < at || i >= at + 4) EXPECT_EQ(w.data()[i], before[i]) << i;
    }
  }
}

// Truncated buffers always raise ParseError, never read out of bounds.
TEST(BytesProperty, TruncationRaisesParseError) {
  ByteWriter w;
  w.u32(1234);
  w.str("hello world");
  w.u64(5678);
  const std::vector<uint8_t>& full = w.data();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::span<const uint8_t> part(full.data(), cut);
    ByteReader r(part);
    EXPECT_THROW(
        {
          r.u32();
          r.str();
          r.u64();
        },
        ParseError)
        << "cut=" << cut;
  }
}

// --- leb128 codecs (src/dex/real/leb128.h): the real-DEX wire format ---

// Boundary values where the encoded width changes, plus both extremes.
const uint32_t kUlebBoundaries[] = {
    0,          1,          0x7f,       0x80,       0x3fff,     0x4000,
    0x1fffff,   0x200000,   0xfffffff,  0x10000000, 0xfffffffe, 0xffffffff};

TEST(Leb128Property, UlebBoundariesRoundTripAtMinimalWidth) {
  for (uint32_t value : kUlebBoundaries) {
    ByteWriter w;
    dex::real::write_uleb128(w, value);
    std::vector<uint8_t> bytes = w.take();
    EXPECT_EQ(bytes.size(), dex::real::uleb128_size(value)) << value;
    ByteReader r(bytes);
    EXPECT_EQ(dex::real::read_uleb128(r), value);
    EXPECT_EQ(r.remaining(), 0u) << value;
  }
}

TEST(Leb128Property, SlebBoundariesRoundTrip) {
  const int32_t values[] = {0,       1,      -1,     63,         64,
                            -64,     -65,    8191,   8192,       -8192,
                            -8193,   1 << 20, -(1 << 20), INT32_MAX, INT32_MIN};
  for (int32_t value : values) {
    ByteWriter w;
    dex::real::write_sleb128(w, value);
    std::vector<uint8_t> bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(dex::real::read_sleb128(r), value);
    EXPECT_EQ(r.remaining(), 0u) << value;
  }
}

TEST(Leb128Property, Uleb128p1EncodesNoIndexAsZero) {
  // -1 is NO_INDEX in debug info; the p1 bias must make it a single 0 byte.
  ByteWriter w;
  dex::real::write_uleb128p1(w, -1);
  std::vector<uint8_t> bytes = w.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0u);
  for (int32_t value : {-1, 0, 1, 126, 127, 128, INT32_MAX - 1}) {
    ByteWriter pw;
    dex::real::write_uleb128p1(pw, value);
    std::vector<uint8_t> pb = pw.take();
    ByteReader r(pb);
    EXPECT_EQ(dex::real::read_uleb128p1(r), value);
  }
}

class Leb128RandomProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Leb128RandomProperty, RandomValuesRoundTrip) {
  Rng rng(GetParam());
  ByteWriter w;
  std::vector<uint32_t> unsigned_values;
  std::vector<int32_t> signed_values;
  for (int i = 0; i < 200; ++i) {
    // Skew toward small values (the common case in real files) but cover the
    // full 32-bit range too.
    uint32_t u = rng.chance(0.5) ? static_cast<uint32_t>(rng.below(1 << 14))
                                 : static_cast<uint32_t>(rng.next());
    int32_t s = static_cast<int32_t>(rng.next());
    unsigned_values.push_back(u);
    signed_values.push_back(s);
    dex::real::write_uleb128(w, u);
    dex::real::write_sleb128(w, s);
  }
  std::vector<uint8_t> bytes = w.take();
  ByteReader r(bytes);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(dex::real::read_uleb128(r), unsigned_values[static_cast<size_t>(i)]);
    EXPECT_EQ(dex::real::read_sleb128(r), signed_values[static_cast<size_t>(i)]);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Leb128RandomProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Leb128Property, LengthBombsFailClosed) {
  // Five 0x80 continuation bytes: more than a 32-bit uleb128 can carry.
  const uint8_t bomb[] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x01};
  {
    ByteReader r(bomb);
    EXPECT_THROW(dex::real::read_uleb128(r), ParseError);
  }
  {
    ByteReader r(bomb);
    EXPECT_THROW(dex::real::read_sleb128(r), ParseError);
  }
  // A fifth byte carrying more than the top 4 bits overflows 32 bits.
  const uint8_t overflow[] = {0xff, 0xff, 0xff, 0xff, 0x1f};
  ByteReader r(overflow);
  EXPECT_THROW(dex::real::read_uleb128(r), ParseError);
  // Truncated stream: continuation bit set but no next byte.
  const uint8_t truncated[] = {0x80};
  ByteReader t(truncated);
  EXPECT_THROW(dex::real::read_uleb128(t), ParseError);
}

// --- hash stability: pinned vectors guard the on-disk formats ---

TEST(HashStability, Adler32PinnedVectors) {
  EXPECT_EQ(adler32({}), 1u);
  const uint8_t wikipedia[] = {'W', 'i', 'k', 'i', 'p', 'e', 'd', 'i', 'a'};
  EXPECT_EQ(adler32(wikipedia), 0x11E60398u);
  std::vector<uint8_t> ramp(1 << 16);
  for (size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<uint8_t>(i);
  // Exercises the mod-65521 wraparound on a 64KiB input (values from
  // zlib.adler32).
  EXPECT_EQ(adler32(ramp), 0xbbba8772u);
  EXPECT_EQ(adler32(std::span(ramp).subspan(1)), 0xbbb98772u);
  // All-0xff inputs are the worst case for deferring the modulo: they grow
  // the sums fastest, so lengths around one and two 5552-byte blocks (and
  // well past them) pin the reduction points (values from zlib.adler32).
  const std::pair<size_t, uint32_t> ones[] = {
      {5551, 0x56039a8du},  {5552, 0xf18f9b8cu},  {5553, 0x8e299c8bu},
      {11104, 0xff6f3726u}, {65536, 0x77970ef2u}, {1048583, 0x344cf60au}};
  for (const auto& [length, expected] : ones) {
    std::vector<uint8_t> data(length, 0xff);
    EXPECT_EQ(adler32(data), expected) << length << " bytes of 0xff";
  }
}

TEST(HashStability, Sha1PinnedVectors) {
  // FIPS 180-1 test vectors; the real-DEX header signature depends on these.
  auto hex = [](const std::array<uint8_t, 20>& digest) {
    std::string out;
    for (uint8_t byte : digest) {
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02x", byte);
      out += buf;
    }
    return out;
  };
  EXPECT_EQ(hex(sha1({})), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  const uint8_t abc[] = {'a', 'b', 'c'};
  EXPECT_EQ(hex(sha1(abc)), "a9993e364706816aba3e25717850c26c9cd0d89d");
  // Multi-block input (> 64 bytes) exercises the chunking path.
  std::vector<uint8_t> million(1000, 'a');
  EXPECT_EQ(hex(sha1(million)), "291e9a6c66994949b57ba5e650361e98fc36b1ba");
}

TEST(HashStability, Adler32MatchesRealDexChecksumRule) {
  // The header checksum covers everything from the signature on; shifting
  // the window by one byte must change the digest (anti-aliasing).
  std::vector<uint8_t> file(256);
  for (size_t i = 0; i < file.size(); ++i) file[i] = static_cast<uint8_t>(i * 7);
  uint32_t whole = adler32(std::span<const uint8_t>(file).subspan(12));
  uint32_t shifted = adler32(std::span<const uint8_t>(file).subspan(13));
  EXPECT_NE(whole, shifted);
  // Stable across calls (no hidden state).
  EXPECT_EQ(whole, adler32(std::span<const uint8_t>(file).subspan(12)));
}

TEST(HashStability, Fnv1aPinnedVectors) {
  // Offset basis for the empty input, standard FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a(std::string_view{}), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string_view{"a"}), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string_view{"foobar"}), 0x85944171f73967e8ull);
}

// The same logical content hashes identically across representations and
// runs; different content collides with negligible probability.
TEST(HashStability, Fnv1aConsistentAcrossOverloads) {
  Rng rng(1234);
  for (int trial = 0; trial < 100; ++trial) {
    std::string s;
    for (uint64_t i = 0, n = rng.below(100); i < n; ++i) {
      s.push_back(static_cast<char>(rng.range(0, 255)));
    }
    std::span<const uint8_t> bytes(
        reinterpret_cast<const uint8_t*>(s.data()), s.size());
    EXPECT_EQ(fnv1a(s), fnv1a(bytes));
  }
}

TEST(HashStability, IncrementalCombinerIsOrderSensitive) {
  Fnv1a a;
  a.add(1);
  a.add(2);
  Fnv1a b;
  b.add(2);
  b.add(1);
  EXPECT_NE(a.digest(), b.digest());
  Fnv1a c;
  c.add(1);
  c.add(2);
  EXPECT_EQ(a.digest(), c.digest());
}

// --- RNG determinism: generation must be reproducible run-to-run ---

TEST(RngProperty, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngProperty, ForkedStreamsAreIndependentButDeterministic) {
  Rng a(42), b(42);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa.next(), fb.next());
  // The fork differs from the parent's continued stream.
  EXPECT_NE(Rng(42).fork().next(), Rng(42).next());
}

TEST(RngProperty, RangeStaysInBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    int64_t lo = static_cast<int64_t>(rng.range(-50, 50));
    int64_t hi = lo + static_cast<int64_t>(rng.below(100));
    int64_t v = rng.range(lo, hi);
    EXPECT_GE(v, lo);
    EXPECT_LE(v, hi);
  }
}

// --- the mutator/verifier contract (src/fuzz/mutator.cpp) ------------------
// Two properties the differential fuzzer's oracle relies on. They live here
// with the other property tests because both quantify over generated inputs
// rather than pinned examples.

// Pinned copy of the mutator's format groups: members share width, operand
// shape and verifier contract, so ANY within-group swap (not just the ones
// plan_ops happens to draw) must keep the method verifier-clean.
const std::vector<std::vector<bc::Op>>& swap_groups() {
  using bc::Op;
  static const std::vector<std::vector<Op>> groups = {
      {Op::kAdd, Op::kSub, Op::kMul, Op::kDiv, Op::kRem, Op::kAnd, Op::kOr,
       Op::kXor, Op::kShl, Op::kShr, Op::kCmp},
      {Op::kIfEq, Op::kIfNe, Op::kIfLt, Op::kIfGe, Op::kIfGt, Op::kIfLe},
      {Op::kIfEqz, Op::kIfNez, Op::kIfLtz, Op::kIfGez, Op::kIfGtz, Op::kIfLez},
      {Op::kAddLit8, Op::kMulLit8},
      {Op::kNeg, Op::kNot},
  };
  return groups;
}

TEST(MutatorVerifierContract, EveryFormatPreservingSwapStaysVerifierClean) {
  fuzz::SeedInput seed = fuzz::resolve_seed("generated:701:600");
  dex::DexFile file = dex::read_dex(seed.apk.classes());

  // Enumerate (method ordinal, pc, replacement) exhaustively, not just the
  // swaps plan_ops would draw, capped to keep the sweep brisk.
  size_t checked = 0;
  size_t ordinal = 0;
  for (const dex::ClassDef& cls : file.classes) {
    for (const auto* list : {&cls.direct_methods, &cls.virtual_methods}) {
      for (const dex::MethodDef& method : *list) {
        if (!method.code.has_value()) continue;
        const std::vector<uint16_t>& insns = method.code->insns;
        size_t pc = 0;
        while (pc < insns.size() && checked < 300) {
          size_t width = bc::width_at(insns, pc);
          bc::Insn insn = bc::decode_at(std::span<const uint16_t>(insns), pc);
          for (const std::vector<bc::Op>& group : swap_groups()) {
            if (std::find(group.begin(), group.end(), insn.op) == group.end()) {
              continue;
            }
            for (bc::Op replacement : group) {
              if (replacement == insn.op) continue;
              fuzz::MutationOp op{fuzz::kOpcodeSwap, ordinal, pc,
                                  static_cast<uint64_t>(replacement)};
              fuzz::Mutant mutant =
                  fuzz::apply_ops(fuzz::Family::kBytecode, seed, {{op}});
              dex::DexFile mutated = dex::read_dex(mutant.apk.classes());
              dex::VerifyResult vr = bc::verify_dex(mutated);
              EXPECT_TRUE(vr.ok())
                  << "m" << ordinal << "@" << pc << " := "
                  << bc::op_info(replacement).name << ": " << vr.message();
              ++checked;
            }
          }
          pc += width;
        }
        ++ordinal;
      }
    }
  }
  EXPECT_GT(checked, 50u);  // the sweep actually exercised real swaps
}

TEST(MutatorVerifierContract, StructuralMutantsNeverCrashTheLoader) {
  // Whatever the structural family emits, parse + verify must either succeed
  // or raise a clean ParseError — bad_alloc / out_of_range / UB all fail the
  // test (these were real pre-hardening outcomes, see tests/data/fuzz/).
  for (const std::string& key : fuzz::structural_seed_keys()) {
    fuzz::SeedInput seed = fuzz::resolve_seed(key);
    for (uint64_t rng_seed = 1; rng_seed <= 25; ++rng_seed) {
      std::vector<fuzz::MutationOp> ops =
          fuzz::plan_ops(fuzz::Family::kStructural, seed, rng_seed, 5);
      fuzz::Mutant mutant =
          fuzz::apply_ops(fuzz::Family::kStructural, seed, ops);
      try {
        dex::DexFile file = dex::read_dex(mutant.apk.classes());
        (void)dex::verify_structure(file);  // reports, never throws
        (void)bc::verify_dex(file);
      } catch (const ParseError&) {
        // clean rejection
      }
    }
  }
}

TEST(MutatorVerifierContract, BehavioralMutantsAreAlwaysWellFormed) {
  // Recipe-level mutants are hostile by construction but never invalid: the
  // generated app must parse and verify for every drawn plan.
  for (const std::string& key : fuzz::behavioral_seed_keys()) {
    fuzz::SeedInput seed = fuzz::resolve_seed(key);
    for (uint64_t rng_seed = 1; rng_seed <= 6; ++rng_seed) {
      std::vector<fuzz::MutationOp> ops =
          fuzz::plan_ops(fuzz::Family::kBehavioral, seed, rng_seed, 4);
      fuzz::Mutant mutant =
          fuzz::apply_ops(fuzz::Family::kBehavioral, seed, ops);
      dex::DexFile file = dex::read_dex(mutant.apk.classes());
      EXPECT_TRUE(dex::verify_structure(file).ok()) << key << "#" << rng_seed;
    }
  }
}

// --- dispatch-mode property (src/runtime/predecode.h) ----------------------
// The cached interpreter must trace randomized verifier-clean apps exactly
// like the decode-every-step kBaseline oracle, not just the pinned DroidBench
// samples in interp_cache_test (ARCHITECTURE invariant 11).

// Randomized verifier-clean activity: onCreate runs a short loop whose body
// is a seeded random mix of blocks — cmp + conditional branch, const + move,
// iget + invoke — plus arithmetic filler, all folding into an accumulator
// that is logged at the end, so a single wrong register anywhere lands in
// the sink trace. The generator only emits in-bounds registers and bound
// labels, so every draw is verifier-clean by construction (asserted below
// anyway).
dex::Apk random_loop_app(uint64_t seed) {
  dex::DexBuilder b;
  const std::string cls = "Lprop/Fuse" + std::to_string(seed) + ";";
  uint32_t log_i =
      b.intern_method("Landroid/util/Log;", "i", "V", {"Ljava/lang/String;"});
  uint32_t tostr = b.intern_method("Ljava/lang/Integer;", "toString",
                                   "Ljava/lang/String;", {"I"});
  b.start_class(cls, "Landroid/app/Activity;");
  uint32_t fld = b.intern_field(cls, "I", "f");
  b.add_instance_field("f", "I");

  Rng rng(seed);
  bc::MethodAssembler as(8, 1);  // this = v7, scratch v0..v6, acc = v4
  for (uint8_t r = 0; r <= 6; ++r) {
    as.const16(r, static_cast<int16_t>(rng.range(-50, 50)));
  }
  as.iput(0, 7, static_cast<uint16_t>(fld));
  as.const16(5, 0);  // loop counter
  as.const16(6, 3);  // iterations: cached slots are re-served, not just built
  auto loop = as.make_label();
  auto done = as.make_label();
  as.bind(loop);
  as.if_test(bc::Op::kIfGe, 5, 6, done);
  const bc::Op kIfz[] = {bc::Op::kIfEqz, bc::Op::kIfNez, bc::Op::kIfLtz,
                         bc::Op::kIfGez, bc::Op::kIfGtz, bc::Op::kIfLez};
  const bc::Op kFiller[] = {bc::Op::kAdd, bc::Op::kSub, bc::Op::kMul,
                            bc::Op::kXor, bc::Op::kAnd, bc::Op::kOr};
  for (int block = 0; block < 24; ++block) {
    // The first three draws are one block of each paired kind, so every
    // seed exercises all of them; the rest are random.
    uint64_t kind = block < 3 ? static_cast<uint64_t>(block) : rng.below(4);
    uint8_t a = static_cast<uint8_t>(rng.below(4));      // v0..v3
    uint8_t c = static_cast<uint8_t>(rng.below(4));
    switch (kind) {
      case 0: {  // cmp + conditional branch
        auto skip = as.make_label();
        as.binop(bc::Op::kCmp, 3, a, c);
        as.if_testz(kIfz[rng.below(6)], 3, skip);
        as.const16(static_cast<uint8_t>(rng.below(3)),
                   static_cast<int16_t>(rng.range(-99, 99)));
        as.bind(skip);
        break;
      }
      case 1:  // const + move
        as.const16(a, static_cast<int16_t>(rng.range(-999, 999)));
        as.move(c, a);
        break;
      case 2:  // iget + invoke
        as.iget(0, 7, static_cast<uint16_t>(fld));
        as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(tostr), {0});
        as.move_result(0);
        as.iput(a, 7, static_cast<uint16_t>(fld));
        break;
      default:  // arithmetic filler
        as.binop(kFiller[rng.below(6)], a, c,
                 static_cast<uint8_t>(rng.below(4)));
        break;
    }
    as.binop(block % 2 == 0 ? bc::Op::kAdd : bc::Op::kXor, 4, 4, a);
  }
  as.add_lit8(5, 5, 1);
  as.goto_(loop);
  as.bind(done);
  as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(tostr), {4});
  as.move_result(0);
  as.invoke(bc::Op::kInvokeStatic, static_cast<uint16_t>(log_i), {0});
  as.return_void();
  b.add_virtual_method("onCreate", "V", {}, as.finish());

  dex::DexFile file = std::move(b).build();
  dex::Apk apk;
  dex::Manifest manifest;
  manifest.package = "prop";
  manifest.entry_class = cls;
  apk.set_manifest(manifest);
  apk.set_classes(dex::write_dex(file));
  return apk;
}

std::string render_outcome(const rt::ExecOutcome& out) {
  if (out.completed) return "completed";
  if (out.uncaught) return "uncaught " + out.exception_type;
  if (out.aborted) return "aborted (" + out.abort_reason + ")";
  return "no outcome";
}

struct AppTrace {
  std::vector<std::string> phases;  // "event: exit state"
  std::vector<std::string> sinks;   // "sink|taint|detail"
  uint64_t steps = 0;               // executed instructions, all phases
  size_t predecoded_methods = 0;    // methods that built a predecoded cache
};

// Methods the runtime served from a predecoded cache (kCached only).
size_t predecoded_methods(rt::Runtime& runtime) {
  size_t count = 0;
  for (rt::RtClass* cls : runtime.linker().loaded_classes()) {
    for (const std::unique_ptr<rt::RtMethod>& m : cls->methods) {
      if (m->predecoded) ++count;
    }
  }
  return count;
}

// The triage oracle's event script (launch, every clickable, teardown) run
// under one dispatch configuration, reduced to its observable state.
AppTrace trace_app(const dex::Apk& apk, rt::RuntimeConfig cfg) {
  rt::Runtime runtime(cfg);
  runtime.install(apk);
  AppTrace trace;
  trace.phases.push_back("launch: " + render_outcome(runtime.launch()));
  for (int id : runtime.ui_clickable_ids()) {
    trace.phases.push_back("click:" + std::to_string(id) + ": " +
                           render_outcome(runtime.fire_click(id)));
  }
  trace.phases.push_back(
      "onPause: " + render_outcome(runtime.call_activity_method("onPause")));
  trace.phases.push_back(
      "onDestroy: " +
      render_outcome(runtime.call_activity_method("onDestroy")));
  for (const rt::Runtime::SinkEvent& ev : runtime.sink_events()) {
    trace.sinks.push_back(ev.sink + "|" + std::to_string(ev.taint) + "|" +
                          ev.detail);
  }
  trace.steps = runtime.interp().steps();
  trace.predecoded_methods = predecoded_methods(runtime);
  return trace;
}

class CachedDispatchProperty : public ::testing::TestWithParam<uint64_t> {};

// The predecoded cache is semantics-preserving: a randomized verifier-clean
// app traces identically — phases, sinks and step count — under kCached and
// under the decode-every-step kBaseline oracle.
TEST_P(CachedDispatchProperty, CachedTracesMatchBaseline) {
  const uint64_t seed = GetParam();
  dex::Apk apk = random_loop_app(seed);
  ASSERT_TRUE(bc::verify_dex(dex::read_dex(apk.classes())).ok());

  rt::RuntimeConfig cached;
  cached.dispatch = rt::DispatchMode::kCached;
  rt::RuntimeConfig baseline;
  baseline.dispatch = rt::DispatchMode::kBaseline;

  AppTrace cached_trace = trace_app(apk, cached);
  AppTrace baseline_trace = trace_app(apk, baseline);

  // Non-vacuous: the cached run really served from predecoded caches, and
  // the baseline control really built none.
  EXPECT_GT(cached_trace.predecoded_methods, 0u) << "seed " << seed;
  EXPECT_EQ(baseline_trace.predecoded_methods, 0u) << "seed " << seed;
  EXPECT_EQ(cached_trace.phases, baseline_trace.phases) << "seed " << seed;
  EXPECT_EQ(cached_trace.sinks, baseline_trace.sinks) << "seed " << seed;
  EXPECT_EQ(cached_trace.steps, baseline_trace.steps) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedDispatchProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace dexlego::support
