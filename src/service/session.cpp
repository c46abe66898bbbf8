#include "service/session.hpp"

#include "common/manifest.hpp"
#include "common/strings.hpp"
#include "service/json.hpp"

namespace lcn::service {

SessionContext::SessionContext(std::uint64_t id, SessionConfig config)
    : id_(id), config_(std::move(config)) {
  if (config_.private_flow_plans) {
    flow_plans_ = std::make_unique<FlowPlanCache>();
  }
  ctx_.metrics = &metrics_;
  ctx_.cancel = &cancel_;
  ctx_.pool_share = &pool_share_;
  ctx_.flow_plans = flow_plans_.get();
}

std::string SessionContext::manifest_json() const {
  const std::string run = run_manifest().json();
  // Splice the session identity into the front of the process manifest
  // object: {"session":N,...,<run fields>}.
  std::string out = strfmt(
      "{\"session\":%llu,\"name\":\"%s\",\"seed\":%llu,"
      "\"shares\":%d,\"private_flow_plans\":%s",
      static_cast<unsigned long long>(id_), json_escape(config_.name).c_str(),
      static_cast<unsigned long long>(config_.seed), config_.shares,
      config_.private_flow_plans ? "true" : "false");
  if (run.size() > 2 && run.front() == '{') {
    out += ',';
    out += run.substr(1);
  } else {
    out += '}';
  }
  return out;
}

}  // namespace lcn::service
