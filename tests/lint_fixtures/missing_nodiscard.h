// Fixture: nodiscard-status violations in a header. The include guard
// is canonical so only the nodiscard rule fires.

#ifndef LASER_LINT_FIXTURES_MISSING_NODISCARD_H
#define LASER_LINT_FIXTURES_MISSING_NODISCARD_H

struct TraceStatus;

TraceStatus unmarked();          // FLAG line 9
TraceStatus alsoUnmarked(int);   // FLAG line 10

[[nodiscard]] TraceStatus marked();            // ok
[[nodiscard]] inline TraceStatus alsoMarked(); // ok

struct Api
{
    [[nodiscard]] virtual TraceStatus status() const = 0; // ok
    TraceStatus memberUnmarked(); // FLAG line 18
    virtual ~Api() = default;
};

// A parameter of status type is not a declaration of one:
void consume(TraceStatus status); // ok

#endif // LASER_LINT_FIXTURES_MISSING_NODISCARD_H
