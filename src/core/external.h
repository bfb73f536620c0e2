/**
 * @file
 * External-operation payloads exchanged between application natives
 * and the endpoint drivers.
 *
 * When an application's native method needs the outside world (a
 * database round trip through a stateful connection), it cannot
 * complete inside the interpreter: the handler returns an External
 * suspension carrying one of these payloads, and the invocation
 * driver (core/invocation.h) performs the operation through the
 * endpoint's transport with the appropriate latency, then resumes
 * the interpreter.
 */

#ifndef BEEHIVE_CORE_EXTERNAL_H
#define BEEHIVE_CORE_EXTERNAL_H

#include <cstdint>

#include "db/record_store.h"
#include "vm/value.h"

namespace beehive::core {

/** A database operation requested by a socket native. */
struct DbCallPayload
{
    db::Request request;

    /**
     * The connection object (SocketImpl analogue) the operation
     * travels on. Its packed native state carries the proxy
     * connection token.
     */
    vm::Ref conn_ref = vm::kNullRef;

    /**
     * Connection token extracted from the object's native state:
     * on the server this is the proxy ConnId; on an offloaded
     * function it is the OffloadId minted by prepare().
     */
    uint64_t conn_token = 0;
};

/** Field layout of the connection (SocketImpl) klass. */
enum SocketFields : uint32_t
{
    kSocketFieldToken = 0,  //!< ConnId / OffloadId native token
    kSocketFieldCount = 1,
};

} // namespace beehive::core

#endif // BEEHIVE_CORE_EXTERNAL_H
