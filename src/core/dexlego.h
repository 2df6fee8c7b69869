// DexLego end-to-end pipeline (paper Fig. 1): execute the target APK inside
// the instrumented runtime (just-in-time collection), optionally under a
// caller-provided driver (fuzzer, force execution, simple launch), then
// reassemble the collection files into a new DEX and splice it back into the
// original APK. The revealed APK is what gets handed to static analysis.
// Every run of one collect installs the same parse of the APK; the batch
// pipeline hands each of a job's collects the job's one parse.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/core/collector.h"
#include "src/core/files.h"
#include "src/core/reassembler.h"
#include "src/dex/archive.h"
#include "src/runtime/runtime.h"

namespace dexlego::core {

struct DexLegoOptions {
  Collector::Options collector;
  ReassembleOptions reassemble;
  rt::RuntimeConfig runtime;
  // Called on each fresh runtime before execution — registers the sample's
  // native methods (JNI analog) and any packer natives.
  std::function<void(rt::Runtime&)> configure_runtime;
  // Exercises the app. Default: default_driver, the one default script.
  // Called once per run; `run_index` supports multi-run drivers.
  std::function<void(rt::Runtime&, int run_index)> driver;
  int runs = 1;  // fresh runtime per run; trees accumulate across runs
};

struct RevealResult {
  dex::Apk revealed_apk;          // original APK with the DEX replaced
  CollectionFiles files;          // the five collection files (Table VI sizes)
  ReassembleStats stats;
  CollectionOutput collection;    // decoded form, for inspection
  bool verified = false;          // reassembled DEX passed the full verifier
  std::string verify_errors;
};

class DexLego {
 public:
  explicit DexLego(DexLegoOptions options = {}) : options_(std::move(options)) {}

  // Runs collection + reassembling on the APK. The collection phase is
  // online (instrumented execution); reassembling is offline (works only on
  // the collection files, mirroring the paper's split).
  RevealResult reveal(const dex::Apk& apk);

  // Online half only: `options.runs` driver executions against fresh
  // runtimes with a collector attached, returning the raw collection.
  // reveal() is collect + encode + reassemble_files; the batch pipeline
  // calls this directly for its per-plan-unit collection runs. `known` is
  // the collection the result will be merged into, if any (a force job
  // passes its fold so far to every forced unit): the collector walks its
  // trees instead of rebuilding them and leaves out trees that retrace one
  // in full, so merging the result into `known` gives what merging a plain
  // collection would. It must stay unchanged until collect returns.
  // `classes` is a parse of `apk`'s classes (dex::load_classes) that every
  // run installs as its image 0; given none, collect parses the APK once,
  // at the first run's install, and shares that parse with later runs.
  static CollectionOutput collect(
      const dex::Apk& apk, const DexLegoOptions& options,
      const CollectionOutput* known = nullptr,
      std::shared_ptr<const dex::DexFile> classes = nullptr);

  // Offline half only: collection files -> revealed APK (manifest and assets
  // copied from `original`).
  static RevealResult reassemble_files(const CollectionFiles& files,
                                       const dex::Apk& original,
                                       const ReassembleOptions& options = {});

 private:
  DexLegoOptions options_;
};

// The default driver: runs rt::run_default_script (src/runtime/script.h) —
// launch, every click handler once, onPause, onDestroy — and logs a launch
// that did not complete.
void default_driver(rt::Runtime& rt, int run_index);

}  // namespace dexlego::core
