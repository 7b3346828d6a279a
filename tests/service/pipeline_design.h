// The two-stage pipeline the service tests load: two STAGE leaves in a PIPE
// whose composite delay carries a 160 ns budget, the same shape as the thesis
// Fig 5.2 accumulator.  Its `spec <= 160e-9` is tighter than the `spec <= 1`
// of workload::pipeline_design(), so two slow enough stages violate it.
#pragma once

namespace stemcp::service {

inline constexpr const char* kPipeline = R"(cell STAGE
  signal in input
  signal out output
  delay in out
end
cell PIPE
  signal in input
  signal out output
  delay in out
    spec <= 160e-9
  subcell s0 STAGE R0 0 0
  subcell s1 STAGE R0 10 0
  net n_in
    io in
    conn s0 in
  net n_mid
    conn s0 out
    conn s1 in
  net n_out
    conn s1 out
    io out
end
)";

}  // namespace stemcp::service
