#include "src/core/dexlego.h"

#include "src/bytecode/verify_code.h"
#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"
#include "src/runtime/script.h"
#include "src/support/log.h"

namespace dexlego::core {

void default_driver(rt::Runtime& rt, int run_index) {
  (void)run_index;
  std::vector<rt::ScriptStep> steps = rt::run_default_script(rt);
  const rt::ExecOutcome& launch = steps.front().outcome;
  if (!launch.completed) {
    DL_INFO << "launch did not complete: " << launch.abort_reason
            << launch.exception_type;
  }
}

CollectionOutput DexLego::collect(const dex::Apk& apk,
                                  const DexLegoOptions& options,
                                  const CollectionOutput* known,
                                  std::shared_ptr<const dex::DexFile> classes) {
  Collector collector(options.collector, known);
  for (int run = 0; run < options.runs; ++run) {
    rt::Runtime runtime(options.runtime);
    if (options.configure_runtime) options.configure_runtime(runtime);
    runtime.add_hooks(&collector);
    if (!classes) {
      classes = std::make_shared<const dex::DexFile>(dex::load_classes(apk));
    }
    runtime.install(apk, classes);
    if (options.driver) {
      options.driver(runtime, run);
    } else {
      default_driver(runtime, run);
    }
    runtime.remove_hooks(&collector);
  }
  return collector.take_output();
}

RevealResult DexLego::reveal(const dex::Apk& apk) {
  CollectionFiles files = encode_collection(collect(apk, options_));
  return reassemble_files(files, apk, options_.reassemble);
}

RevealResult DexLego::reassemble_files(const CollectionFiles& files,
                                       const dex::Apk& original,
                                       const ReassembleOptions& options) {
  RevealResult result;
  result.files = files;
  result.collection = decode_collection(files);
  ReassembleResult ra = reassemble(result.collection, options);
  result.stats = ra.stats;

  dex::VerifyResult verify = bc::verify_dex(ra.file);
  result.verified = verify.ok();
  result.verify_errors = verify.message();
  if (!result.verified) {
    DL_WARN << "reassembled DEX failed verification:\n" << result.verify_errors;
  }

  // Replace the DEX inside the original APK (paper: "we leverage the Android
  // Asset Packaging Tool ... to replace the DEX file in the original APK").
  // Real-DEX entries are stripped so the revealed APK carries exactly one
  // container — the revealed bytes are identical whichever container the
  // input shipped (ARCHITECTURE invariant 12).
  result.revealed_apk = original;
  dex::strip_real_classes(result.revealed_apk);
  result.revealed_apk.set_classes(dex::write_dex(ra.file));
  return result;
}

}  // namespace dexlego::core
