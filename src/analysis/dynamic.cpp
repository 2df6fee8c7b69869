#include "src/analysis/dynamic.h"

#include "src/runtime/script.h"
#include "src/runtime/source_sink.h"

namespace dexlego::analysis {

AnalysisResult run_dynamic_analysis(const DynamicToolConfig& tool,
                                    const dex::Apk& apk,
                                    const DynamicRunOptions& options) {
  rt::Runtime runtime(tool.runtime);
  if (options.configure_runtime) options.configure_runtime(runtime);
  runtime.install(apk);
  rt::run_default_script(runtime);

  AnalysisResult result;
  for (const rt::Runtime::SinkEvent& ev : runtime.leaks()) {
    for (const rt::SourceSpec& src : rt::taint_sources()) {
      if (ev.taint & src.taint) {
        Flow flow;
        flow.source = std::string(src.class_descriptor) + "->" + src.method;
        flow.sink = ev.sink;
        flow.where = "<runtime>";
        result.flows.insert(flow);
      }
    }
  }
  return result;
}

}  // namespace dexlego::analysis
