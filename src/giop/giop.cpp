#include "giop/giop.hpp"

namespace eternal::giop {

namespace {

using util::CdrError;
using util::CdrReader;
using util::CdrWriter;

constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 0;
constexpr std::size_t kFrameHeaderSize = 12;

/// Offset of the first service-context entry: the 12-byte frame header,
/// then the u32 entry count.
constexpr std::size_t kContextsOffset = kFrameHeaderSize + 4;

/// Writes the 12-byte GIOP header. `W` is CdrWriter or CdrSizer: every
/// encoder runs once through a CdrSizer to learn its exact size, then once
/// through a CdrWriter reserved to that size, so the buffer is allocated
/// once and the size field needs no backpatch.
template <typename W>
void put_header(W& w, MsgType type, ByteOrder order, std::uint32_t message_size) {
  w.put_u8('G');
  w.put_u8('I');
  w.put_u8('O');
  w.put_u8('P');
  w.put_u8(kVersionMajor);
  w.put_u8(kVersionMinor);
  w.put_u8(static_cast<std::uint8_t>(order));
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u32(message_size);
}

template <typename W>
void put_contexts(W& w, const ServiceContextList& contexts) {
  w.put_u32(static_cast<std::uint32_t>(contexts.size()));
  for (const auto& sc : contexts) {
    w.put_u32(sc.context_id);
    w.put_octets(sc.data);
  }
}

template <typename W>
void put_body(W& w, const Request& m) {
  put_contexts(w, m.service_context);
  w.put_u32(m.request_id);
  w.put_bool(m.response_expected);
  w.put_octets(m.object_key);
  w.put_string(m.operation);
  w.put_octets(BytesView{});  // deprecated Principal
  w.put_raw(m.body);
}

template <typename W>
void put_body(W& w, const Reply& m) {
  put_contexts(w, m.service_context);
  w.put_u32(m.request_id);
  w.put_u32(static_cast<std::uint32_t>(m.reply_status));
  w.put_raw(m.body);
}

template <typename W>
void put_body(W& w, const CancelRequest& m) {
  w.put_u32(m.request_id);
}

template <typename W>
void put_body(W& w, const LocateRequest& m) {
  w.put_u32(m.request_id);
  w.put_octets(m.object_key);
}

template <typename W>
void put_body(W& w, const LocateReply& m) {
  w.put_u32(m.request_id);
  w.put_u32(m.locate_status);
}

template <typename W>
void put_body(W&, const CloseConnection&) {}

template <typename W>
void put_body(W&, const MessageError&) {}

template <typename M>
Bytes encode_message(const M& m, MsgType type, ByteOrder order) {
  util::CdrSizer sizer;
  put_header(sizer, type, order, 0);
  put_body(sizer, m);
  CdrWriter w(order, sizer.size());
  put_header(w, type, order, static_cast<std::uint32_t>(sizer.size() - kFrameHeaderSize));
  put_body(w, m);
  return std::move(w).take();
}

/// Reads the service-context entries (validating them) and returns how
/// many there are.
std::uint32_t skip_contexts(CdrReader& r) {
  const std::uint32_t n = r.get_count(8);  // id + length minimum
  for (std::uint32_t i = 0; i < n; ++i) {
    (void)r.get_u32();
    (void)r.get_octets_view();
  }
  return n;
}

/// Calls fn(context_id, data) on each entry of an inspected message until
/// it returns false. inspect() validated the entries, so this cannot fail.
template <typename Fn>
void for_each_context(const Inspection& info, Fn&& fn) {
  if (info.context_count == 0) return;
  CdrReader r(info.message, info.order);
  (void)r.get_raw_view(kContextsOffset);
  for (std::uint32_t i = 0; i < info.context_count; ++i) {
    const std::uint32_t id = r.get_u32();
    const BytesView data = r.get_octets_view();
    if (!fn(id, data)) return;
  }
}

/// Reads the request_id field, recording where it sits.
void get_request_id(CdrReader& r, Inspection& out) {
  r.align(4);
  out.request_id_offset = r.position();
  out.request_id = r.get_u32();
}

std::uint64_t trace_id_of(BytesView data) noexcept {
  std::uint64_t id = 0;
  for (std::size_t i = 0; i < 8; ++i) id |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  return id;
}

struct FrameInfo {
  ByteOrder order;
  MsgType type;
  std::uint32_t size;
};

std::optional<FrameInfo> read_frame_header(CdrReader& r, BytesView data) {
  if (data.size() < kFrameHeaderSize) return std::nullopt;
  if (data[0] != 'G' || data[1] != 'I' || data[2] != 'O' || data[3] != 'P') return std::nullopt;
  (void)r.get_raw_view(4);
  const std::uint8_t major = r.get_u8();
  (void)r.get_u8();  // minor
  if (major != kVersionMajor) return std::nullopt;
  const auto order = static_cast<ByteOrder>(r.get_u8() & 1);
  const auto type_raw = r.get_u8();
  if (type_raw > static_cast<std::uint8_t>(MsgType::kMessageError)) return std::nullopt;
  // The size field must be read in the *message's* byte order, which we only
  // now know; CdrReader was constructed with a guess. Re-read with a scoped
  // reader over the 4 size bytes.
  CdrReader size_reader(data.subspan(8, 4), order);
  const std::uint32_t size = size_reader.get_u32();
  (void)r.get_u32();  // consume the bytes in the primary reader
  return FrameInfo{order, static_cast<MsgType>(type_raw), size};
}

}  // namespace

bool is_giop(BytesView data) noexcept {
  try {
    CdrReader r(data, ByteOrder::kLittle);
    auto info = read_frame_header(r, data);
    return info && data.size() == kFrameHeaderSize + info->size;
  } catch (const CdrError&) {
    return false;
  }
}

Bytes encode(const Request& m, ByteOrder order) {
  return encode_message(m, MsgType::kRequest, order);
}
Bytes encode(const Reply& m, ByteOrder order) {
  return encode_message(m, MsgType::kReply, order);
}
Bytes encode(const CancelRequest& m, ByteOrder order) {
  return encode_message(m, MsgType::kCancelRequest, order);
}
Bytes encode(const LocateRequest& m, ByteOrder order) {
  return encode_message(m, MsgType::kLocateRequest, order);
}
Bytes encode(const LocateReply& m, ByteOrder order) {
  return encode_message(m, MsgType::kLocateReply, order);
}
Bytes encode(const CloseConnection& m, ByteOrder order) {
  return encode_message(m, MsgType::kCloseConnection, order);
}
Bytes encode(const MessageError& m, ByteOrder order) {
  return encode_message(m, MsgType::kMessageError, order);
}

std::optional<Inspection> inspect(BytesView data) {
  try {
    CdrReader r(data, ByteOrder::kLittle);
    auto frame = read_frame_header(r, data);
    if (!frame) return std::nullopt;
    if (data.size() != kFrameHeaderSize + frame->size) return std::nullopt;
    // Re-create the reader with the correct order, positioned after the
    // frame header (alignment stays relative to the message start).
    CdrReader body(data, frame->order);
    (void)body.get_raw_view(kFrameHeaderSize);

    Inspection out;
    out.type = frame->type;
    out.order = frame->order;
    out.message = data;
    out.body_offset = data.size();
    switch (frame->type) {
      case MsgType::kRequest:
        out.context_count = skip_contexts(body);
        get_request_id(body, out);
        out.response_expected = body.get_bool();
        out.object_key = body.get_octets_view();
        out.operation = body.get_string_view();
        (void)body.get_octets_view();  // Principal
        out.body_offset = body.position();
        return out;
      case MsgType::kReply:
        out.context_count = skip_contexts(body);
        get_request_id(body, out);
        out.status = body.get_u32();
        if (out.status > static_cast<std::uint32_t>(ReplyStatus::kLocationForward)) {
          return std::nullopt;
        }
        out.body_offset = body.position();
        return out;
      case MsgType::kCancelRequest:
        get_request_id(body, out);
        return out;
      case MsgType::kLocateRequest:
        get_request_id(body, out);
        out.object_key = body.get_octets_view();
        return out;
      case MsgType::kLocateReply:
        get_request_id(body, out);
        out.status = body.get_u32();
        return out;
      case MsgType::kCloseConnection:
      case MsgType::kMessageError:
        return out;
    }
    return std::nullopt;
  } catch (const CdrError&) {
    return std::nullopt;
  }
}

std::optional<Message> decode(BytesView data) {
  std::optional<Inspection> info = inspect(data);
  if (!info) return std::nullopt;
  const BytesView body = data.subspan(info->body_offset);
  Message out;
  out.order = info->order;
  switch (info->type) {
    case MsgType::kRequest: {
      Request m;
      m.service_context = info->service_context();
      m.request_id = info->request_id;
      m.response_expected = info->response_expected;
      m.object_key.assign(info->object_key.begin(), info->object_key.end());
      m.operation = std::string(info->operation);
      m.body.assign(body.begin(), body.end());
      out.body = std::move(m);
      return out;
    }
    case MsgType::kReply: {
      Reply m;
      m.service_context = info->service_context();
      m.request_id = info->request_id;
      m.reply_status = static_cast<ReplyStatus>(info->status);
      m.body.assign(body.begin(), body.end());
      out.body = std::move(m);
      return out;
    }
    case MsgType::kCancelRequest:
      out.body = CancelRequest{info->request_id};
      return out;
    case MsgType::kLocateRequest:
      out.body = LocateRequest{info->request_id,
                               Bytes(info->object_key.begin(), info->object_key.end())};
      return out;
    case MsgType::kLocateReply:
      out.body = LocateReply{info->request_id, info->status};
      return out;
    case MsgType::kCloseConnection:
      out.body = CloseConnection{};
      return out;
    case MsgType::kMessageError:
      out.body = MessageError{};
      return out;
  }
  return std::nullopt;
}

bool Inspection::has_context(std::uint32_t context_id) const noexcept {
  bool found = false;
  for_each_context(*this, [&](std::uint32_t id, BytesView) {
    found = id == context_id;
    return !found;
  });
  return found;
}

std::uint64_t Inspection::trace_id() const noexcept {
  std::uint64_t trace = 0;
  for_each_context(*this, [&](std::uint32_t id, BytesView data) {
    if (id != kTraceContextId || data.size() != 8) return true;
    trace = trace_id_of(data);
    return false;
  });
  return trace;
}

ServiceContextList Inspection::service_context() const {
  ServiceContextList out;
  out.reserve(context_count);
  for_each_context(*this, [&](std::uint32_t id, BytesView data) {
    out.push_back(ServiceContext{id, Bytes(data.begin(), data.end())});
    return true;
  });
  return out;
}

bool patch_request_id(Bytes& framed, std::uint32_t request_id) {
  const std::optional<Inspection> info = inspect(framed);
  if (!info || (info->type != MsgType::kRequest && info->type != MsgType::kReply)) return false;
  std::uint8_t* field = framed.data() + info->request_id_offset;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::size_t shift = info->order == ByteOrder::kLittle ? 8 * i : 8 * (3 - i);
    field[i] = static_cast<std::uint8_t>(request_id >> shift);
  }
  return true;
}

namespace {

ServiceContext make_trace_context(std::uint64_t trace_id) {
  ServiceContext sc;
  sc.context_id = kTraceContextId;
  sc.data.reserve(8);
  for (int i = 0; i < 8; ++i)
    sc.data.push_back(static_cast<std::uint8_t>((trace_id >> (8 * i)) & 0xff));
  return sc;
}

void set_trace_context(ServiceContextList& contexts, std::uint64_t trace_id) {
  for (auto& sc : contexts) {
    if (sc.context_id == kTraceContextId) {
      sc = make_trace_context(trace_id);
      return;
    }
  }
  contexts.push_back(make_trace_context(trace_id));
}

}  // namespace

Bytes with_trace_context(BytesView framed, std::uint64_t trace_id) {
  std::optional<Message> msg = decode(framed);
  if (msg) {
    if (auto* req = std::get_if<Request>(&msg->body)) {
      set_trace_context(req->service_context, trace_id);
      return encode(*req, msg->order);
    }
    if (auto* rep = std::get_if<Reply>(&msg->body)) {
      set_trace_context(rep->service_context, trace_id);
      return encode(*rep, msg->order);
    }
  }
  return Bytes(framed.begin(), framed.end());
}

}  // namespace eternal::giop
