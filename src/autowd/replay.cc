#include "src/autowd/replay.h"

#include "src/common/clock.h"
#include "src/watchdog/context.h"

namespace awd {

ReplayResult ReplayFailure(const wdg::FailureSignature& signature,
                           const ReducedProgram& program,
                           const OpExecutorRegistry& registry) {
  ReplayResult result;

  // Locate the pinpointed op: exact (function, instr) first, then by site.
  const ReducedOp* target = nullptr;
  for (const ReducedFunction& fn : program.functions) {
    for (const ReducedOp& op : fn.ops) {
      if (op.origin_function == signature.location.function &&
          op.origin_instr_id == signature.location.instr_id) {
        target = &op;
        break;
      }
      if (target == nullptr && !signature.location.op_site.empty() &&
          op.site == signature.location.op_site) {
        target = &op;  // fallback; keep scanning for an exact match
      }
    }
  }
  if (target == nullptr) {
    result.op_status = wdg::NotFoundError("pinpointed op not present in reduced program");
    return result;
  }
  result.op_found = true;

  // Restore the failure-inducing context and re-execute the op.
  wdg::CheckContext ctx("replay:" + signature.checker_name);
  result.op_status = ctx.Restore(wdg::CheckContext::ParseDump(signature.context_dump),
                                 wdg::RealClock::Instance().NowNs());
  if (!result.op_status.ok()) {
    return result;
  }
  result.op_status = registry.Execute(*target, ctx, "replay:" + signature.checker_name);
  result.reproduced = !result.op_status.ok() && result.op_status.code() == signature.code;
  return result;
}

}  // namespace awd
