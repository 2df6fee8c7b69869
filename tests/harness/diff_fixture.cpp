#include "tests/harness/diff_fixture.h"

#include "src/dex/io.h"
#include "src/dex/real/real_dex.h"

namespace dexlego::harness {

rt::ExecutionTrace run_and_trace(const dex::Apk& apk,
                                 const ConfigureFn& configure) {
  rt::Runtime runtime;
  if (configure) configure(runtime);
  runtime.install(apk);
  return rt::trace_default_script(runtime);
}

DiffResult run_differential(const dex::Apk& apk, const DiffOptions& options) {
  DiffResult diff;
  diff.original = run_and_trace(apk, options.configure_runtime);

  core::DexLegoOptions reveal_options = options.reveal;
  if (options.configure_runtime) {
    reveal_options.configure_runtime = options.configure_runtime;
  }
  core::DexLego dexlego(reveal_options);
  diff.reveal = dexlego.reveal(apk);

  diff.revealed =
      run_and_trace(diff.reveal.revealed_apk, options.configure_runtime);

  if (options.check_containment) {
    dex::DexFile original_dex = dex::load_classes(apk);
    dex::DexFile revealed_dex =
        dex::load_classes(diff.reveal.revealed_apk);
    diff.containment = core::check_containment(original_dex, revealed_dex);
    diff.containment_checked = true;
  }
  return diff;
}

::testing::AssertionResult TraceEquivalent(const rt::ExecutionTrace& original,
                                           const rt::ExecutionTrace& revealed) {
  std::string diff = rt::first_difference(original, revealed);
  if (diff.empty()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << diff << "\noriginal:\n" << original.summary() << "revealed:\n"
         << revealed.summary();
}

::testing::AssertionResult VerifierClean(const core::RevealResult& result) {
  if (!result.verified) {
    return ::testing::AssertionFailure()
           << "reassembled DEX failed verification:\n" << result.verify_errors;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BehaviorallyEquivalent(const DiffResult& diff) {
  ::testing::AssertionResult verified = VerifierClean(diff.reveal);
  if (!verified) return verified;
  ::testing::AssertionResult traces =
      TraceEquivalent(diff.original, diff.revealed);
  if (!traces) return traces;
  if (diff.containment_checked && !diff.containment.ok) {
    return ::testing::AssertionFailure()
           << "containment failed: " << diff.containment.summary()
           << (diff.containment.missing.empty()
                   ? ""
                   : "\nfirst missing: " + diff.containment.missing[0]);
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dexlego::harness
