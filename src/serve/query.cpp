#include "serve/query.hpp"

#include "support/wire.hpp"

namespace rpt::serve {

namespace wire = support::wire;

const char* QueryKindName(QueryKind kind) noexcept {
  switch (kind) {
    case QueryKind::kWhichReplica: return "which-replica";
    case QueryKind::kResidual: return "residual";
    case QueryKind::kAttachCost: return "attach-cost";
  }
  return "unknown";
}

QueryResponse Answer(const PlacementSnapshot& snapshot, const QueryRequest& request) {
  RPT_REQUIRE(request.node < snapshot.Size(), "serve: query node id out of range");
  QueryResponse response;
  response.version = snapshot.Version();
  if (!snapshot.IsLive(request.node)) {
    // The client may race a detach: the id is answerable (it existed when
    // the snapshot was published) but there is nothing behind it.
    response.ok = false;
    return response;
  }
  switch (request.kind) {
    case QueryKind::kWhichReplica: {
      const NodeId server = snapshot.PrimaryServerOf(request.node);
      response.ok = server != kInvalidNode;
      response.server = server;
      response.value = snapshot.DemandOf(request.node);
      response.distance =
          response.ok ? snapshot.DistToAncestor(request.node, server) : 0;
      return response;
    }
    case QueryKind::kResidual:
      response.ok = true;
      response.server = request.node;
      response.value = snapshot.ResidualUnder(request.node);
      response.distance = snapshot.ReplicasUnder(request.node);
      return response;
    case QueryKind::kAttachCost: {
      const AttachResult attach = snapshot.AttachAt(request.node, request.demand);
      response.ok = attach.feasible;
      response.server = attach.server;
      response.distance = attach.feasible ? attach.distance : 0;
      response.value = attach.feasible ? snapshot.ResidualOf(attach.server) : 0;
      return response;
    }
  }
  RPT_REQUIRE(false, "serve: unknown query kind");
  return response;  // unreachable
}

void EncodeRequest(const QueryRequest& request, std::vector<std::uint8_t>& out) {
  wire::ByteWriter(out)
      .U32(static_cast<std::uint32_t>(kRequestWireSize))  // stream length prefix
      .U8(static_cast<std::uint8_t>(request.kind))
      .U32(request.node)
      .U64(request.demand);
}

void EncodeResponse(const QueryResponse& response, std::vector<std::uint8_t>& out) {
  wire::ByteWriter(out)
      .U32(static_cast<std::uint32_t>(kResponseWireSize))  // stream length prefix
      .U64(response.version)
      .U8(static_cast<std::uint8_t>((response.ok ? 1 : 0) | (response.stale ? 2 : 0) |
                                    (response.follower ? 4 : 0)))
      .U32(response.server)
      .U64(response.value)
      .U64(response.distance);
}

QueryRequest DecodeRequest(std::span<const std::uint8_t> payload) {
  RPT_REQUIRE(payload.size() == kRequestWireSize,
              "serve: request payload must be exactly " + std::to_string(kRequestWireSize) +
                  " bytes, got " + std::to_string(payload.size()));
  wire::ByteReader in(payload);
  const std::uint8_t kind = in.U8();
  RPT_REQUIRE(kind <= static_cast<std::uint8_t>(QueryKind::kAttachCost),
              "serve: unknown query kind byte");
  QueryRequest request;
  request.kind = static_cast<QueryKind>(kind);
  request.node = in.U32();
  request.demand = in.U64();
  return request;
}

QueryResponse DecodeResponse(std::span<const std::uint8_t> payload) {
  RPT_REQUIRE(payload.size() == kResponseWireSize,
              "serve: response payload must be exactly " + std::to_string(kResponseWireSize) +
                  " bytes, got " + std::to_string(payload.size()));
  wire::ByteReader in(payload);
  QueryResponse response;
  response.version = in.U64();
  const std::uint8_t status = in.U8();
  RPT_REQUIRE(status <= 7, "serve: unknown status bits in response");
  response.ok = (status & 1) != 0;
  response.stale = (status & 2) != 0;
  response.follower = (status & 4) != 0;
  response.server = in.U32();
  response.value = in.U64();
  response.distance = in.U64();
  return response;
}

}  // namespace rpt::serve
