// Dynamic taint analysis presets — the TaintDroid / TaintART analogs of
// Table IV. Both run the app in the instrumented runtime with value-level
// taint tracking; both lose taint through framework/native marshalling
// (taint_through_framework=false); TaintDroid additionally runs on the
// emulator profile, so emulator-detecting samples behave benignly under it.
#pragma once

#include <functional>
#include <string>

#include "src/analysis/report.h"
#include "src/dex/archive.h"
#include "src/runtime/runtime.h"

namespace dexlego::analysis {

struct DynamicToolConfig {
  std::string name;
  rt::RuntimeConfig runtime;
};

inline DynamicToolConfig taintdroid_config() {
  DynamicToolConfig cfg;
  cfg.name = "TaintDroid";
  cfg.runtime.device = rt::DeviceProfile::kEmulator;  // emulator-based
  cfg.runtime.taint_through_framework = false;
  return cfg;
}

inline DynamicToolConfig taintart_config() {
  DynamicToolConfig cfg;
  cfg.name = "TaintART";
  cfg.runtime.device = rt::DeviceProfile::kPhone;  // runs on a real device
  cfg.runtime.taint_through_framework = false;
  return cfg;
}

struct DynamicRunOptions {
  std::function<void(rt::Runtime&)> configure_runtime;  // natives etc.
};

// Executes the app under the tool's runtime profile, driven by the default
// script (rt::run_default_script: launch, every click handler, onPause,
// onDestroy), and reports the taint flows observed at sinks.
AnalysisResult run_dynamic_analysis(const DynamicToolConfig& tool,
                                    const dex::Apk& apk,
                                    const DynamicRunOptions& options = {});

}  // namespace dexlego::analysis
