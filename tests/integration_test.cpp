// Collection-file properties: random collection outputs round-trip through
// the five files, and a reveal's files survive a disk round trip. Reveals
// of every DroidBench sample, plain and packed, are checked through the
// differential oracle in tests/differential_test.cpp, and generated apps of
// any size/seed there too (DifferentialGeneratedApp).
#include <gtest/gtest.h>

#include "src/benchsuite/droidbench.h"
#include "src/core/dexlego.h"
#include "src/core/files.h"
#include "src/support/rng.h"

namespace dexlego {
namespace {

const suite::DroidBench& db() {
  static suite::DroidBench suite = suite::build_droidbench();
  return suite;
}

// Property: random collection outputs round-trip through the five files.
class CollectionRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollectionRoundTrip, EncodeDecodeStable) {
  support::Rng rng(GetParam());
  core::CollectionOutput out;
  int n_classes = static_cast<int>(rng.below(4)) + 1;
  for (int c = 0; c < n_classes; ++c) {
    core::CollectedClass cls;
    cls.descriptor = "Lr/C" + std::to_string(c) + ";";
    cls.super_descriptor = "Ljava/lang/Object;";
    for (int f = 0; f < static_cast<int>(rng.below(3)); ++f) {
      core::CollectedField field;
      field.name = "f" + std::to_string(f);
      field.type_descriptor = rng.chance(0.5) ? "I" : "Ljava/lang/String;";
      field.static_value.kind = rng.chance(0.5)
                                    ? core::CollectedValue::Kind::kInt
                                    : core::CollectedValue::Kind::kString;
      field.static_value.i = rng.range(-100, 100);
      field.static_value.s = "v" + std::to_string(rng.below(100));
      cls.static_fields.push_back(field);
    }
    out.classes.push_back(cls);
  }
  int n_methods = static_cast<int>(rng.below(5)) + 1;
  for (int i = 0; i < n_methods; ++i) {
    core::MethodRecord rec;
    rec.key = {"Lr/C0;", "m" + std::to_string(i), "()V"};
    rec.registers_size = static_cast<uint16_t>(rng.range(1, 16));
    rec.ins_size = 1;
    rec.return_type = "V";
    auto tree = std::make_unique<core::TreeNode>();
    int n_il = static_cast<int>(rng.below(6)) + 1;
    for (int e = 0; e < n_il; ++e) {
      core::ILEntry entry;
      entry.pc = static_cast<uint16_t>(e * 2);
      entry.units = {static_cast<uint16_t>(rng.below(0x37)),
                     static_cast<uint16_t>(rng.below(65536))};
      if (rng.chance(0.3)) {
        core::SymRef ref;
        ref.kind = bc::RefKind::kString;
        ref.parts = {"str" + std::to_string(rng.below(50))};
        entry.ref = ref;
      }
      tree->iim[entry.pc] = tree->il.size();
      tree->il.push_back(std::move(entry));
    }
    if (rng.chance(0.4)) {
      auto child = std::make_unique<core::TreeNode>();
      child->parent = tree.get();
      child->sm_start = 2;
      if (rng.chance(0.5)) child->sm_end = 4;
      core::ILEntry entry;
      entry.pc = 2;
      entry.units = {0x0001, 0x0002};
      child->iim[2] = 0;
      child->il.push_back(entry);
      tree->children.push_back(std::move(child));
    }
    rec.trees.push_back(std::move(tree));
    out.methods.emplace(rec.key, std::move(rec));
  }

  core::CollectionFiles files = core::encode_collection(out);
  core::CollectionOutput back = core::decode_collection(files);
  ASSERT_EQ(back.classes.size(), out.classes.size());
  ASSERT_EQ(back.methods.size(), out.methods.size());
  for (const auto& [key, rec] : out.methods) {
    const core::MethodRecord* brec = back.find_method(key);
    ASSERT_NE(brec, nullptr);
    ASSERT_EQ(brec->trees.size(), rec.trees.size());
    for (size_t t = 0; t < rec.trees.size(); ++t) {
      EXPECT_EQ(brec->trees[t]->fingerprint(), rec.trees[t]->fingerprint());
    }
  }
  // Double round trip is byte-stable.
  core::CollectionFiles files2 = core::encode_collection(back);
  EXPECT_EQ(files.bytecode, files2.bytecode);
  EXPECT_EQ(files.class_data, files2.class_data);
  EXPECT_EQ(files.method_data, files2.method_data);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectionRoundTrip,
                         ::testing::Range<uint64_t>(100, 120));

// Collection files survive a disk round trip (save/load).
TEST(CollectionFilesDisk, SaveLoad) {
  const suite::Sample* sample = db().find("Straight1");
  ASSERT_NE(sample, nullptr);
  core::DexLego dexlego;
  core::RevealResult result = dexlego.reveal(sample->apk);
  std::string dir = ::testing::TempDir() + "/dexlego_files";
  result.files.save(dir);
  core::CollectionFiles loaded = core::CollectionFiles::load(dir);
  EXPECT_EQ(loaded.total_size(), result.files.total_size());
  // Offline-only reassembly from the loaded files matches.
  core::RevealResult again =
      core::DexLego::reassemble_files(loaded, sample->apk);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.revealed_apk.classes(), result.revealed_apk.classes());
}

}  // namespace
}  // namespace dexlego
