#include "sim/config_reader.hh"

#include <charconv>
#include <cstdlib>
#include <system_error>

#include "sim/logging.hh"

namespace indra
{

CheckpointScheme
checkpointSchemeFromName(const std::string &name, const std::string &key)
{
    for (CheckpointScheme s :
         {CheckpointScheme::None, CheckpointScheme::DeltaBackup,
          CheckpointScheme::VirtualCheckpoint,
          CheckpointScheme::MemoryUpdateLog,
          CheckpointScheme::SoftwareCheckpoint,
          CheckpointScheme::DomainRewind}) {
        if (name == checkpointSchemeName(s))
            return s;
    }
    fatal("setting '", key, "': unknown checkpoint scheme '", name,
          "' (try delta-backup, virtual-checkpoint, "
          "memory-update-log, software-checkpoint, domain-rewind, "
          "none)");
}

std::uint64_t
parseUnsigned(const std::string &key, const std::string &value,
              std::uint64_t min, std::uint64_t max)
{
    const char *end = value.data() + value.size();
    std::uint64_t v = 0;
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    fatal_if(ec == std::errc::invalid_argument || ptr != end,
             "setting '", key, "': '", value,
             "' is not an unsigned integer");
    fatal_if(ec == std::errc::result_out_of_range || v < min || v > max,
             "setting '", key, "': '", value, "' is out of range [",
             min, ", ", max, "]");
    return v;
}

double
parseReal(const std::string &key, const std::string &value, double lo,
          double hi, bool lo_open)
{
    const char *end = value.data() + value.size();
    double v = 0;
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    fatal_if(ec == std::errc::invalid_argument || ptr != end,
             "setting '", key, "': '", value, "' is not a number");
    // The negated comparisons also reject NaN.
    fatal_if(ec == std::errc::result_out_of_range ||
                 !(lo_open ? v > lo : v >= lo) || !(v <= hi),
             "setting '", key, "': '", value, "' is out of range ",
             lo_open ? "(" : "[", lo, ", ", hi, "]");
    return v;
}

bool
parseFlag(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes" ||
        value == "on") {
        return true;
    }
    if (value == "0" || value == "false" || value == "no" ||
        value == "off") {
        return false;
    }
    fatal("setting '", key, "': '", value,
          "' is not a boolean (want 1/0/true/false/yes/no/on/off)");
}

namespace
{

unsigned
toJobs(const std::string &key, const std::string &value)
{
    fatal_if(!value.empty() && value[0] == '-', "setting '", key,
             "': '", value, "' is not a valid worker count");
    return static_cast<unsigned>(parseUnsigned(key, value, 0, 1024));
}

} // anonymous namespace

unsigned
parseJobs(std::vector<std::string> &args)
{
    unsigned jobs = 0;
    if (const char *env = std::getenv("INDRA_JOBS"))
        jobs = toJobs("INDRA_JOBS", env);
    for (auto it = args.begin(); it != args.end();) {
        std::string value;
        if (*it == "--jobs") {
            fatal_if(it + 1 == args.end(), "--jobs needs a value");
            value = *(it + 1);
            it = args.erase(it, it + 2);
        } else if (it->rfind("--jobs=", 0) == 0) {
            value = it->substr(7);
            it = args.erase(it);
        } else if (it->rfind("jobs=", 0) == 0) {
            value = it->substr(5);
            it = args.erase(it);
        } else {
            ++it;
            continue;
        }
        jobs = toJobs("--jobs", value);
    }
    return jobs;
}

} // namespace indra
