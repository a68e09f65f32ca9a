#include "rca/rca_config.hh"

#include <sstream>

namespace indra::rca
{

std::string
describeRcaConfig(const RcaConfig &cfg)
{
    std::ostringstream os;
    os << "latency_slack=" << cfg.latencySlack
       << " shrink_budget=" << cfg.shrinkBudget
       << " max_reproducers=" << cfg.maxReproducers;
    return os.str();
}

} // namespace indra::rca
