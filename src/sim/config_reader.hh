/**
 * @file
 * Strict value parsers shared by every "key=value" setting: the
 * NodeConfig settings table (core/node_config.hh), the --jobs knob,
 * and the CLI driver keys. Each parser accepts the whole string or
 * dies with a fatal() that names the originating key.
 */

#ifndef INDRA_SIM_CONFIG_READER_HH
#define INDRA_SIM_CONFIG_READER_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace indra
{

/**
 * Parse a scheme name ("delta-backup", "domain-rewind", "none", ...).
 * Unknown names are fatal; the error names the originating setting
 * key (@p key, default "checkpointScheme") so a typo in a dotted
 * ablation file or a scenario JSON points back at its source.
 */
CheckpointScheme
checkpointSchemeFromName(const std::string &name,
                         const std::string &key = "checkpointScheme");

/**
 * Parse a decimal unsigned integer in [@p min, @p max]. Empty input,
 * a sign, trailing characters, overflow and out-of-range values are
 * fatal, naming @p key.
 */
std::uint64_t
parseUnsigned(const std::string &key, const std::string &value,
              std::uint64_t min = 0,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Parse a real number in [@p lo, @p hi], or in (@p lo, @p hi] when
 * @p lo_open. Malformed input, NaN and out-of-range values are fatal,
 * naming @p key.
 */
double parseReal(const std::string &key, const std::string &value,
                 double lo, double hi, bool lo_open = false);

/**
 * Parse a flag: 1/true/yes/on or 0/false/no/off. Anything else is
 * fatal, naming @p key.
 */
bool parseFlag(const std::string &key, const std::string &value);

/**
 * Extract the experiment-harness parallelism knob from @p args:
 * "--jobs N", "--jobs=N", or "jobs=N" (all removed from @p args so
 * later key=value parsing never sees them). Falls back to the
 * INDRA_JOBS environment variable when no argument is given.
 *
 * @return the requested worker count, or 0 when unspecified (callers
 * pass 0 through to harness::ParallelSweep, which resolves it to
 * hardware_concurrency). A value of 1 requests the serial path.
 */
unsigned parseJobs(std::vector<std::string> &args);

} // namespace indra

#endif // INDRA_SIM_CONFIG_READER_HH
