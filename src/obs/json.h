/**
 * @file
 * Minimal JSON document tree shared by the observability layer: the
 * telemetry exporter builds documents with it, the bench-schema
 * validator and the obs tests parse exported artifacts back through it.
 *
 * Deliberately small: objects keep insertion order (deterministic
 * artifacts diff cleanly), numbers are doubles with exact integer
 * printing up to 2^53, and the parser accepts exactly the JSON the
 * dumper emits (full RFC 8259 input, no extensions). 64-bit identifiers
 * such as config hashes must be encoded as strings.
 */

#ifndef LASER_OBS_JSON_H
#define LASER_OBS_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace laser::obs {

class Json
{
  public:
    enum class Type : std::uint8_t {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(int i) : type_(Type::Number), num_(i) {}
    Json(std::int64_t i) : type_(Type::Number), num_(double(i)) {}
    Json(std::uint64_t u) : type_(Type::Number), num_(double(u)) {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array();
    static Json object();

    Type type() const { return type_; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }

    /** Append to an array (converts a Null value to an array first). */
    Json &push(Json v);

    /** Set/replace an object member (converts Null to an object). */
    Json &set(std::string key, Json v);

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(std::string_view key) const;

    double asNumber(double fallback = 0.0) const;
    bool asBool(bool fallback = false) const;
    const std::string &asString() const { return str_; }
    const std::vector<Json> &items() const { return items_; }
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /**
     * Parse @p text into @p out. Returns false (and sets @p err when
     * given) on malformed input or trailing garbage.
     */
    static bool parse(std::string_view text, Json *out,
                      std::string *err = nullptr);

  private:
    void dumpTo(std::string *out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace laser::obs

#endif // LASER_OBS_JSON_H
