#include "apps/common_config.h"

namespace cologne::apps {

Result<colog::CompiledProgram> CompileDriverProgram(
    const std::string& source, const CommonConfig& config) {
  COLOGNE_RETURN_IF_ERROR(colog::SetKnobs(config.knobs, nullptr, nullptr));
  return colog::CompileColog(source, config.knobs);
}

runtime::System::Options MakeSystemOptions(const CommonConfig& config) {
  runtime::System::Options opts;
  opts.seed = config.seed;
  opts.default_link.drop_prob = config.link_loss_prob;
  return opts;
}

runtime::SolveOptions OverlaySolveOptions(const CommonConfig& config,
                                          runtime::SolveOptions base,
                                          double time_limit_ms) {
  if (time_limit_ms >= 0) base.time_limit_ms = time_limit_ms;
  if (config.solver_max_iterations > 0) {
    base.max_iterations = config.solver_max_iterations;
  }
  return base;
}

runtime::SolveRequest MakeSolveRequest(const CommonConfig& config,
                                       int batched_prefix) {
  runtime::SolveRequest req;
  if (config.batch_links) {
    req.mode = runtime::SolveMode::kBatched;
    req.group_key_prefix = batched_prefix;
  }
  return req;
}

}  // namespace cologne::apps
