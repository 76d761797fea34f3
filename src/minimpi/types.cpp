#include "minimpi/types.hpp"

#include <array>

namespace dipdc::minimpi {

std::string_view primitive_name(Primitive p) {
  static constexpr std::array<std::string_view, kPrimitiveCount> names = {
      "MPI_Send",      "MPI_Recv",     "MPI_Isend",    "MPI_Irecv",
      "MPI_Wait",      "MPI_Sendrecv", "MPI_Probe",    "MPI_Barrier",
      "MPI_Bcast",     "MPI_Scatter",  "MPI_Scatterv", "MPI_Gather",
      "MPI_Gatherv",   "MPI_Allgather", "MPI_Reduce",  "MPI_Allreduce",
      "MPI_Alltoall",  "MPI_Alltoallv", "MPI_Scan",
      "SendReliable",  "RecvReliable",
      "MPI_Ibcast",    "MPI_Ireduce",  "MPI_Iallreduce", "MPI_Iallgatherv",
  };
  const auto idx = static_cast<std::size_t>(p);
  return idx < names.size() ? names[idx] : std::string_view{"?"};
}

std::string_view collective_algo_name(CollectiveAlgo a) {
  static constexpr std::array<std::string_view, kCollectiveAlgoCount> names =
      {
          "barrier/dissemination", "bcast/binomial",
          "bcast/linear",
          "scatter/linear",        "scatter/binomial",
          "scatterv/linear",       "scatterv/binomial",
          "gather/linear",         "gather/binomial",
          "gatherv/linear",        "gatherv/binomial",
          "allgather/gather+bcast", "allgather/ring",
          "reduce/binomial",       "allreduce/reduce+bcast",
          "allreduce/recursive-doubling", "allreduce/rabenseifner",
          "alltoall/pairwise",     "alltoallv/pairwise",
          "scan/linear",
      };
  const auto idx = static_cast<std::size_t>(a);
  return idx < names.size() ? names[idx] : std::string_view{"?"};
}

}  // namespace dipdc::minimpi
