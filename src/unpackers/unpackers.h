// Method-level dump-based unpacking baselines (paper Section VI-B and
// Table III). Each runs the app under the default script
// (rt::run_default_script, src/runtime/script.h), then dumps:
//
//   DexHunter analog — dumps the *file images* of every DEX registered with
//   the runtime after execution (the mmapped regions at the "right timing").
//   Dynamically loaded payloads are captured; runtime bytecode patches are
//   NOT (the dump reflects the file bytes, i.e. one snapshot state).
//
//   AppSpear analog — re-serializes the *linked runtime structures*
//   (classes/methods as the class linker holds them) at dump time. Captures
//   the post-execution state of each method's single code array — again one
//   snapshot per method, so self-modifying divergences are lost.
//
// Both therefore recover packed + dynamically loaded code but cannot
// represent per-execution divergences or resolve reflection, which is
// exactly the gap DexLego's instruction-level collection closes.
#pragma once

#include <functional>
#include <string>

#include "src/dex/archive.h"
#include "src/runtime/runtime.h"

namespace dexlego::unpackers {

struct UnpackOptions {
  std::function<void(rt::Runtime&)> configure_runtime;  // natives etc.
};

struct UnpackResult {
  dex::Apk unpacked;     // original APK with the dumped DEX spliced in
  size_t images = 0;     // DEX images observed (1 shell + payloads)
  size_t classes = 0;    // classes in the dump
};

UnpackResult dexhunter_unpack(const dex::Apk& packed,
                              const UnpackOptions& options = {});
UnpackResult appspear_unpack(const dex::Apk& packed,
                             const UnpackOptions& options = {});

}  // namespace dexlego::unpackers
